"""The end-to-end benchmark of the reproduction (see ``../README.md``)."""
