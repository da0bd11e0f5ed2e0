"""The layered STARTS pipeline benchmark (see README.md in this directory)."""
