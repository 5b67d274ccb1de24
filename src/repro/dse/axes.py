"""Declarative technology axes and the grid they span.

An :class:`Axis` is a named list of labeled library transforms; a
:class:`SpaceSpec` combines several axes into the cartesian grid of
technology-library variants a study sweeps.  Every grid point gets a
stable, human-readable ``point_id`` (``"price=0.5|remote=2"``) built
from the axis labels — stable across runs and processes, so manifests
and reports can name points durably, while the *content* of each
variant (the transformed library, the interconnect style) is what the
service-tier fingerprint actually digests.

The shipped axis constructors cover the lumos-style questions:

* :func:`scale_prices` — multiply every processor type's cost;
* :func:`scale_speeds` — multiply every ``D_PS`` execution time
  (the paper's Experiment-2 knob, as an axis);
* :func:`remote_delays` — set ``D_CR``, the per-unit remote transfer
  delay;
* :func:`link_costs` — set ``C_L``, the point-to-point link cost;
* :func:`interconnect_styles` — synthesize under different interconnect
  styles (the bus-vs-link toggle of §4.3);
* :func:`subset_types` — restrict the library to named processor types
  (which library entries actually earn their place?).

Axes compose freely; custom axes are one :class:`AxisValue` per labeled
transform over a :class:`PointConfig`.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Sequence, Tuple, Union

from repro.errors import SystemModelError
from repro.system.interconnect import STYLE_NAMES, InterconnectStyle
from repro.system.library import TechnologyLibrary
from repro.system.processors import ProcessorType

#: Short, stable display labels per style (used in point ids).
_STYLE_LABELS = {
    InterconnectStyle.POINT_TO_POINT: "p2p",
    InterconnectStyle.BUS: "bus",
    InterconnectStyle.RING: "ring",
}


@dataclass(frozen=True)
class PointConfig:
    """What one grid point synthesizes against: a library and a style."""

    library: TechnologyLibrary
    style: InterconnectStyle = InterconnectStyle.POINT_TO_POINT


@dataclass(frozen=True)
class AxisValue:
    """One labeled setting of an axis.

    Attributes:
        label: Stable display label (becomes part of the point id; must
            not contain ``"|"`` or ``"="``).
        apply: Pure transform taking a :class:`PointConfig` to the
            variant this value describes.
    """

    label: str
    apply: Callable[[PointConfig], PointConfig]

    def __post_init__(self) -> None:
        if not self.label or any(ch in self.label for ch in "|=,"):
            raise SystemModelError(
                f"axis value label {self.label!r} must be nonempty and "
                f"free of '|', '=' and ','"
            )


@dataclass(frozen=True)
class Axis:
    """A named technology axis: an ordered list of labeled variants."""

    name: str
    values: Tuple[AxisValue, ...]

    def __post_init__(self) -> None:
        if not self.name or any(ch in self.name for ch in "|=,"):
            raise SystemModelError(
                f"axis name {self.name!r} must be nonempty and free of "
                f"'|', '=' and ','"
            )
        if not self.values:
            raise SystemModelError(f"axis {self.name!r} needs at least one value")
        labels = [value.label for value in self.values]
        if len(set(labels)) != len(labels):
            raise SystemModelError(
                f"axis {self.name!r} has duplicate value labels: {labels}"
            )
        object.__setattr__(self, "values", tuple(self.values))

    def __len__(self) -> int:
        return len(self.values)


def _number_label(value: float) -> str:
    """Stable ``%g`` label for a numeric axis value."""
    return f"{float(value):g}"


# -- shipped axis constructors -----------------------------------------------
def scale_prices(*factors: float, name: str = "price") -> Axis:
    """Multiply every processor type's cost by each factor.

    Models a technology library whose processors get cheaper (factor
    < 1) or dearer (> 1) while speeds stay put.  Link/bus costs are
    untouched — sweep those with :func:`link_costs`.
    """
    values = []
    for factor in factors:
        if factor <= 0:
            raise SystemModelError("price scale factors must be positive")

        def transform(config: PointConfig, factor: float = float(factor)) -> PointConfig:
            scaled = tuple(
                ProcessorType(
                    ptype.name, ptype.cost * factor, ptype.exec_times,
                    memory_capacity=ptype.memory_capacity,
                )
                for ptype in config.library.types
            )
            return dataclasses.replace(
                config, library=dataclasses.replace(config.library, types=scaled)
            )

        values.append(AxisValue(_number_label(factor), transform))
    return Axis(name, tuple(values))


def scale_speeds(*factors: float, name: str = "speed") -> Axis:
    """Multiply every ``D_PS`` execution time by each factor.

    Factor < 1 means faster silicon; > 1 is the paper's Experiment 2
    ("increase the size of each of the subtasks") as a first-class axis.
    """
    values = []
    for factor in factors:
        if factor <= 0:
            raise SystemModelError("speed scale factors must be positive")

        def transform(config: PointConfig, factor: float = float(factor)) -> PointConfig:
            return dataclasses.replace(
                config, library=config.library.scaled_execution(factor)
            )

        values.append(AxisValue(_number_label(factor), transform))
    return Axis(name, tuple(values))


def remote_delays(*delays: float, name: str = "remote") -> Axis:
    """Set ``D_CR`` (per-unit remote transfer delay) to each value."""
    values = []
    for delay in delays:
        if delay < 0:
            raise SystemModelError("remote delays must be nonnegative")

        def transform(config: PointConfig, delay: float = float(delay)) -> PointConfig:
            return dataclasses.replace(
                config,
                library=dataclasses.replace(config.library, remote_delay=delay),
            )

        values.append(AxisValue(_number_label(delay), transform))
    return Axis(name, tuple(values))


def link_costs(*costs: float, name: str = "link") -> Axis:
    """Set ``C_L`` (point-to-point link cost) to each value."""
    values = []
    for cost in costs:
        if cost < 0:
            raise SystemModelError("link costs must be nonnegative")

        def transform(config: PointConfig, cost: float = float(cost)) -> PointConfig:
            return dataclasses.replace(
                config, library=dataclasses.replace(config.library, link_cost=cost)
            )

        values.append(AxisValue(_number_label(cost), transform))
    return Axis(name, tuple(values))


def interconnect_styles(
    *styles: Union[str, InterconnectStyle], name: str = "style"
) -> Axis:
    """Synthesize each grid point under these interconnect styles.

    The bus-vs-link toggle of §4.3 as an axis: the library is untouched,
    the formulation style changes (and with it which cost terms exist).
    """
    values = []
    for style in styles:
        if isinstance(style, str):
            try:
                style = STYLE_NAMES[style]
            except KeyError:
                raise SystemModelError(
                    f"unknown interconnect style {style!r} "
                    f"(use {', '.join(sorted(STYLE_NAMES))})"
                ) from None

        def transform(
            config: PointConfig, style: InterconnectStyle = style
        ) -> PointConfig:
            return dataclasses.replace(config, style=style)

        values.append(AxisValue(_STYLE_LABELS[style], transform))
    return Axis(name, tuple(values))


def subset_types(*groups: Sequence[str], name: str = "types") -> Axis:
    """Restrict the library to named processor types, one group per value.

    A group is a sequence of type names (labels render as
    ``"p1+p3"``).  Unknown names raise at grid-expansion time; a subset
    that no longer *covers* the application simply synthesizes as an
    infeasible grid point.
    """
    values = []
    for group in groups:
        names = tuple(group.split("+")) if isinstance(group, str) else tuple(group)
        if not names:
            raise SystemModelError("a type subset needs at least one type name")

        def transform(
            config: PointConfig, names: Tuple[str, ...] = names
        ) -> PointConfig:
            known = {ptype.name for ptype in config.library.types}
            missing = [n for n in names if n not in known]
            if missing:
                raise SystemModelError(
                    f"subset names unknown processor types: {missing} "
                    f"(library has {sorted(known)})"
                )
            kept = tuple(
                ptype for ptype in config.library.types if ptype.name in names
            )
            return dataclasses.replace(
                config, library=dataclasses.replace(config.library, types=kept)
            )

        values.append(AxisValue("+".join(names), transform))
    return Axis(name, tuple(values))


# -- the grid ------------------------------------------------------------------
@dataclass(frozen=True)
class GridPoint:
    """One expanded grid point: id, coordinates, and the variant to solve.

    Attributes:
        point_id: Stable label, ``"axis=label"`` pairs joined by ``"|"``
            in axis order.
        coords: ``axis name -> value label`` (insertion-ordered to match
            the spec's axis order).
        library: The transformed technology library.
        style: The interconnect style to synthesize under.
    """

    point_id: str
    coords: Dict[str, str]
    library: TechnologyLibrary
    style: InterconnectStyle


class SpaceSpec:
    """The cartesian product of technology axes over a base library.

    Args:
        library: Base :class:`TechnologyLibrary` every axis transforms.
        axes: Axes, outermost first; the grid iterates the last axis
            fastest (row-major), and transforms apply in axis order.
        style: Base interconnect style (an :func:`interconnect_styles`
            axis overrides it).

    Example:
        >>> from repro.system.examples import example1_library
        >>> spec = SpaceSpec(example1_library(),
        ...                  [scale_prices(0.5, 1.0), remote_delays(1.0, 2.0)])
        >>> len(spec)
        4
        >>> [p.point_id for p in spec.points()][:2]
        ['price=0.5|remote=1', 'price=0.5|remote=2']
    """

    def __init__(
        self,
        library: TechnologyLibrary,
        axes: Sequence[Axis],
        style: InterconnectStyle = InterconnectStyle.POINT_TO_POINT,
    ) -> None:
        if not axes:
            raise SystemModelError("a design space needs at least one axis")
        names = [axis.name for axis in axes]
        if len(set(names)) != len(names):
            raise SystemModelError(f"duplicate axis names: {names}")
        self.library = library
        self.axes: Tuple[Axis, ...] = tuple(axes)
        self.style = style

    def __len__(self) -> int:
        """Number of grid points (product of axis sizes)."""
        size = 1
        for axis in self.axes:
            size *= len(axis)
        return size

    def axis_names(self) -> Tuple[str, ...]:
        """The axis names, in declaration order."""
        return tuple(axis.name for axis in self.axes)

    def points(self) -> Iterator[GridPoint]:
        """Expand the grid, applying transforms in axis order.

        Yields:
            One :class:`GridPoint` per combination, last axis fastest.

        Raises:
            SystemModelError: When a transform produces an invalid
                library (e.g. a subset naming unknown types).
        """
        for combo in itertools.product(*(axis.values for axis in self.axes)):
            config = PointConfig(self.library, self.style)
            coords: Dict[str, str] = {}
            for axis, value in zip(self.axes, combo):
                config = value.apply(config)
                coords[axis.name] = value.label
            point_id = "|".join(f"{k}={v}" for k, v in coords.items())
            yield GridPoint(point_id, coords, config.library, config.style)
