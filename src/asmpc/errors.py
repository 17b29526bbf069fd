"""Exception taxonomy shared by all subsystems.

Each class carries the process exit code the CLI maps it to:
0 success, 2 usage, 3 transport, 4 protocol desync, 5 numeric domain,
6 triple exhaustion.
"""


class MpcError(Exception):
    """Base class for all engine failures."""

    exit_code = 1


# --- sharing / numeric domain -------------------------------------------

class InvalidSecret(MpcError):
    """Secret is NaN or infinite and cannot cross a protocol boundary."""

    exit_code = 5


class ZeroSecretUnderMSS(MpcError):
    """Direct multiplicative sharing of zero is rejected."""

    exit_code = 5


class NumericOverflow(MpcError):
    """A local computation left binary64 range."""

    exit_code = 5


class InvalidBase(MpcError):
    exit_code = 5


class LogOfZero(MpcError):
    exit_code = 5


class DivisionByZero(MpcError):
    exit_code = 5


class NearZeroDenominator(MpcError):
    """A resharing denominator fell inside the zero guard.  Nothing
    retries: the session aborts with exit code 5, and the operator must
    deal fresh triples before running again."""

    exit_code = 5


class ComplexResultUnsupported(MpcError):
    """The requested power has no real value; pass positive_domain to
    evaluate magnitudes only."""

    exit_code = 5


class OracleDomainError(MpcError):
    """Plaintext evaluation hit an input outside an op's domain."""

    exit_code = 5


# --- offline material ----------------------------------------------------

class TripleExhausted(MpcError):
    """The triple store ran dry; re-run the dealer."""

    exit_code = 6


class TripleFileCorrupt(MpcError):
    exit_code = 6

    def __init__(self, message, line=None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


# --- transport / scheduling ----------------------------------------------

class TransportUnavailable(MpcError):
    exit_code = 3


class PeerGone(MpcError):
    exit_code = 3


class ProtocolDesync(MpcError):
    """Received a frame that does not match the protocol script."""

    exit_code = 4


class PlanError(MpcError):
    """Program is not a schedulable DAG of supported operations."""

    exit_code = 2


_BY_NAME = None


def error_by_name(name):
    """Map an error class name (as sent in an abort frame) back to its class."""
    global _BY_NAME
    if _BY_NAME is None:
        _BY_NAME = {
            cls.__name__: cls
            for cls in list(globals().values())
            if isinstance(cls, type) and issubclass(cls, MpcError)
        }
    return _BY_NAME.get(name, MpcError)
