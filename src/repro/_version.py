"""The installed distribution's version; setup.py is the single source."""

from importlib import metadata

try:
    __version__ = metadata.version("algorand-role-rewards-repro")
except metadata.PackageNotFoundError:  # running from a bare source tree
    __version__ = "0.0.0+uninstalled"
