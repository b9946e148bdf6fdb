"""Exception types shared across the package."""


class BurstRxError(Exception):
    """Base class for all package errors."""


class LayoutError(BurstRxError, ValueError):
    """Frame layout violates a structural constraint."""


class PayloadError(BurstRxError, ValueError):
    """Payload bits do not match the declared layout."""


class FftSizeError(BurstRxError, ValueError):
    """Transform called with an unsupported length."""


class FftInputError(BurstRxError, TypeError):
    """Forward real transform called with complex samples."""


class ConfigError(BurstRxError, ValueError):
    """Simulator configuration is invalid."""


class ChannelError(BurstRxError, ValueError):
    """Channel operation received unusable input."""


class DetectionError(BurstRxError, RuntimeError):
    """No burst frame was detected in the scanned beats."""


class SyncError(BurstRxError, RuntimeError):
    """Frame synchronization failed or was ambiguous."""


class AlignmentError(BurstRxError, ValueError):
    """Sequences to compare are not aligned."""
