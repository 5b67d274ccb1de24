"""SOS benchmark package: see README.md."""
