"""Shared exception base so callers can catch package errors in one place."""


class LumberkitError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(LumberkitError, ValueError):
    """A setting is out of range; also a ValueError for library callers."""
