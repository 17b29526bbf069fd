"""Share and reveal for two-party additive and multiplicative sharing.

A sharing record holds both parties' shares; at runtime the pair is only
co-resident in dealer, oracle, and test contexts.  n is fixed to two
parties, so the records are pairs, not vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidSecret, TripleFileCorrupt, ZeroSecretUnderMSS
from .numeric import MaskSource, ensure_finite

KIND_ADDITIVE = "A"
KIND_MULTIPLICATIVE = "M"


@dataclass(frozen=True)
class AdditiveSharing:
    """Pair (x1, x2) with x1 + x2 = x."""

    share_p1: float
    share_p2: float

    def reveal(self) -> float:
        return self.share_p1 + self.share_p2


@dataclass(frozen=True)
class MultiplicativeSharing:
    """Pair (u1, u2) with u1 * u2 = u.

    A zero share only ever arises as additive-resharing output on a zero
    secret; direct sharing of zero is rejected.
    """

    share_p1: float
    share_p2: float

    def reveal(self) -> float:
        return self.share_p1 * self.share_p2


def share_additive(secret: float, masks: MaskSource) -> AdditiveSharing:
    secret = ensure_finite(secret, "secret")
    s1 = masks.additive()
    return AdditiveSharing(s1, secret - s1)


def share_multiplicative(secret: float, masks: MaskSource) -> MultiplicativeSharing:
    secret = ensure_finite(secret, "secret")
    if secret == 0.0:
        raise ZeroSecretUnderMSS("cannot share 0 multiplicatively")
    s1 = masks.multiplicative()
    return MultiplicativeSharing(s1, secret / s1)


# --- share files (CLI input staging) --------------------------------------
#
# One record per line: id,kind(A|M),party,value with round-trip decimal
# float formatting.

@dataclass(frozen=True)
class ShareRecord:
    ref: str
    kind: str
    party: int
    value: float


def format_float(x: float) -> str:
    return repr(float(x))


def parse_float(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise TripleFileCorrupt(f"bad float {text!r} in {where}")
    if value != value or value in (float("inf"), float("-inf")):
        raise InvalidSecret(f"non-finite value in {where}")
    return value


def write_share_file(path, records) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for r in records:
            fh.write(f"{r.ref},{r.kind},{r.party},{format_float(r.value)}\n")


def read_share_file(path, party: int | None = None) -> list[ShareRecord]:
    records = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise TripleFileCorrupt("share record needs 4 fields", line=lineno)
            ref, kind, party_text, value_text = parts
            if kind not in (KIND_ADDITIVE, KIND_MULTIPLICATIVE):
                raise TripleFileCorrupt(f"unknown share kind {kind!r}", line=lineno)
            try:
                rec_party = int(party_text)
            except ValueError:
                raise TripleFileCorrupt(f"bad party {party_text!r}", line=lineno)
            if rec_party not in (1, 2):
                raise TripleFileCorrupt(f"party must be 1 or 2, got {rec_party}", line=lineno)
            value = parse_float(value_text, f"share file line {lineno}")
            if party is None or rec_party == party:
                records.append(ShareRecord(ref, kind, rec_party, value))
    return records


def stage_inputs(secrets: dict[str, float], masks: MaskSource,
                 kinds: dict[str, str] | None = None) -> list[ShareRecord]:
    """Share plain secrets into a combined record list for both parties."""
    kinds = kinds or {}
    records = []
    for ref in sorted(secrets):
        kind = kinds.get(ref, KIND_ADDITIVE)
        if kind == KIND_ADDITIVE:
            sh = share_additive(secrets[ref], masks)
        else:
            sh = share_multiplicative(secrets[ref], masks)
        records.append(ShareRecord(ref, kind, 1, sh.share_p1))
        records.append(ShareRecord(ref, kind, 2, sh.share_p2))
    return records
