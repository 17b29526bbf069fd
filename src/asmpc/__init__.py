"""Two-party secure computation over additive and multiplicative secret
sharing: a trusted-dealer offline phase, a protocol catalog for linear,
multiplicative, comparison, and elementary-function evaluation, a
round-accounted transport, and a plaintext oracle for equivalence checks."""

from .dealer import (
    ResharingSlice,
    StandardSlice,
    TripleStore,
    generate_triples,
    read_triple_file,
    write_triple_file,
)
from .engine import (
    LocalRun,
    PartyContext,
    RunOutcome,
    execute,
    inputs_from_records,
    run_local,
    run_over_channels,
)
from .errors import MpcError
from .numeric import MaskSource, RandomnessPolicy, TolerancePolicy
from .oracle import eval_plain
from .program import ProtocolProgram, Plan, load_program, parse_program, plan
from .protocols import ComparisonOutcome, Value
from .sharing import (
    AdditiveSharing,
    MultiplicativeSharing,
    ShareRecord,
    read_share_file,
    reveal,
    share_additive,
    share_multiplicative,
    stage_inputs,
    write_share_file,
)
from .transport import SessionTranscript, make_inproc_pair

__all__ = [
    "AdditiveSharing",
    "ComparisonOutcome",
    "LocalRun",
    "MaskSource",
    "MpcError",
    "MultiplicativeSharing",
    "PartyContext",
    "Plan",
    "ProtocolProgram",
    "RandomnessPolicy",
    "ResharingSlice",
    "RunOutcome",
    "SessionTranscript",
    "ShareRecord",
    "StandardSlice",
    "TolerancePolicy",
    "TripleStore",
    "Value",
    "eval_plain",
    "execute",
    "generate_triples",
    "inputs_from_records",
    "load_program",
    "make_inproc_pair",
    "parse_program",
    "plan",
    "read_share_file",
    "read_triple_file",
    "reveal",
    "run_local",
    "run_over_channels",
    "share_additive",
    "share_multiplicative",
    "stage_inputs",
    "write_share_file",
    "write_triple_file",
]

__version__ = "0.1.0"
