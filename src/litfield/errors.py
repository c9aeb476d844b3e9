"""Exception hierarchy shared across the package."""


class LitFieldError(Exception):
    """Base class for all package-specific errors."""


class InvalidDepthError(LitFieldError):
    pass


class PixelBoundsError(LitFieldError):
    pass


class ConfigurationError(LitFieldError):
    pass


class DegenerateGeometryError(LitFieldError):
    pass


class NoOverlapError(LitFieldError):
    pass


class TruncatedPacketError(LitFieldError):
    """Raised when a packet buffer ends before its declared fields do."""

    def __init__(self, offset: int, message: str = ""):
        self.offset = offset
        super().__init__(message or f"packet truncated at byte offset {offset}")


class UnknownPacketKindError(LitFieldError):
    pass


class ProtocolError(LitFieldError):
    pass


class SceneError(LitFieldError):
    pass


class PointCapacityError(LitFieldError):
    """Raised when a projection would index more points than its keys hold."""
