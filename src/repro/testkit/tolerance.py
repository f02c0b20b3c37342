"""Per-field tolerance specs and the nested trace-diff engine.

A golden trace is a list of records whose payloads are JSON-like trees
(scalars, strings, lists, dicts, and tensor summaries).  Two execution
strategies are *equivalent* when their traces match field by field:

* in **exact** mode every leaf must be identical — the contract for
  serial-vs-pooled and cache-hit-vs-fresh differentials, where the
  runtime layer promises bit-identity;
* in **tolerance** mode numeric leaves matched by a
  :class:`ToleranceSpec` rule may drift within declared absolute /
  relative bounds — the contract for float-vs-quantized differentials,
  where drift is expected but must stay bounded.

Field paths look like ``"reconstruct/iou"`` or ``"rollout/states/mean"``
(record step, then keys, with ``[i]`` for list indices); spec rules are
``fnmatch`` patterns over those paths, first match wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = ["FieldTolerance", "ToleranceSpec", "Mismatch", "diff_payload",
           "EXACT", "TENSOR_KEY", "TENSOR_STAT_FIELDS"]

# Marker key identifying a tensor summary node (see testkit.golden).
TENSOR_KEY = "__tensor__"
# Tensor-summary fields that remain comparable under tolerance; the
# content hash is only meaningful for exact comparison.
TENSOR_STAT_FIELDS = ("mean", "std", "min", "max", "l2")


@dataclass(frozen=True)
class FieldTolerance:
    """Allowed drift for one field: |a - g| <= atol + rtol * |g|."""

    atol: float = 0.0
    rtol: float = 0.0
    ignore: bool = False

    @property
    def exact(self) -> bool:
        return not self.ignore and self.atol == 0.0 and self.rtol == 0.0

    def allows(self, golden: float, actual: float) -> bool:
        if self.ignore:
            return True
        if golden != golden or actual != actual:  # NaN never passes
            return golden != golden and actual != actual and self.exact
        return abs(actual - golden) <= self.atol + self.rtol * abs(golden)

    def as_dict(self) -> Dict[str, Any]:
        if self.ignore:
            return {"ignore": True}
        return {"atol": self.atol, "rtol": self.rtol}


EXACT = FieldTolerance()


class ToleranceSpec:
    """Ordered ``pattern -> FieldTolerance`` rules over field paths.

    Unmatched fields are compared exactly, so a spec only ever *relaxes*
    the fields it names — forgetting a rule can produce a false failure,
    never a silent pass.
    """

    def __init__(self, rules: Optional[Mapping[str, Mapping[str, Any]]] = None):
        self.rules: List[Tuple[str, FieldTolerance]] = []
        for pattern, raw in (rules or {}).items():
            self.rules.append((pattern, FieldTolerance(
                atol=float(raw.get("atol", 0.0)),
                rtol=float(raw.get("rtol", 0.0)),
                ignore=bool(raw.get("ignore", False)))))

    def lookup(self, path: str) -> FieldTolerance:
        for pattern, tol in self.rules:
            if fnmatchcase(path, pattern):
                return tol
        return EXACT

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        return {pattern: tol.as_dict() for pattern, tol in self.rules}

    @staticmethod
    def from_dict(raw: Optional[Mapping[str, Mapping[str, Any]]]
                  ) -> "ToleranceSpec":
        return ToleranceSpec(raw)


@dataclass
class Mismatch:
    """One field where golden and actual traces disagree."""

    path: str
    kind: str  # "value" | "type" | "structure" | "tolerance"
    golden: Any
    actual: Any
    detail: str = ""

    def render(self) -> str:
        extra = f" ({self.detail})" if self.detail else ""
        return (f"{self.path}: [{self.kind}] golden={self.golden!r} "
                f"actual={self.actual!r}{extra}")


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _diff_tensor(path: str, golden: dict, actual: dict,
                 tol: FieldTolerance, out: List[Mismatch]) -> None:
    for field in ("shape", "dtype"):
        if golden.get(field) != actual.get(field):
            out.append(Mismatch(f"{path}/{field}", "structure",
                                golden.get(field), actual.get(field)))
            return
    if tol.exact:
        if golden.get("sha256") != actual.get("sha256"):
            out.append(Mismatch(f"{path}/sha256", "value",
                                golden.get("sha256"), actual.get("sha256"),
                                detail="tensor content differs"))
        return
    # Under tolerance the content hash is expected to change; bound the
    # drift through the summary statistics instead.
    for field in TENSOR_STAT_FIELDS:
        g, a = golden.get(field), actual.get(field)
        if g is None or a is None:
            continue
        if not tol.allows(float(g), float(a)):
            out.append(Mismatch(
                f"{path}/{field}", "tolerance", g, a,
                detail=f"atol={tol.atol} rtol={tol.rtol}"))


def diff_payload(golden: Any, actual: Any,
                 spec: Optional[ToleranceSpec] = None,
                 path: str = "", out: Optional[List[Mismatch]] = None
                 ) -> List[Mismatch]:
    """Recursive diff of two JSON-like payloads.

    With ``spec=None`` every leaf is compared exactly; otherwise numeric
    leaves (and tensor-summary stats) matched by a rule may drift within
    its bounds.  Returns the (possibly empty) mismatch list.
    """
    out = out if out is not None else []
    tol = spec.lookup(path) if spec is not None else EXACT
    if tol.ignore:
        return out
    if isinstance(golden, dict) and isinstance(actual, dict):
        if golden.get(TENSOR_KEY) and actual.get(TENSOR_KEY):
            _diff_tensor(path, golden, actual, tol, out)
            return out
        for key in sorted(set(golden) | set(actual)):
            sub = f"{path}/{key}" if path else str(key)
            if key not in golden or key not in actual:
                out.append(Mismatch(sub, "structure",
                                    golden.get(key, "<missing>"),
                                    actual.get(key, "<missing>")))
                continue
            diff_payload(golden[key], actual[key], spec, sub, out)
        return out
    if isinstance(golden, list) and isinstance(actual, list):
        if len(golden) != len(actual):
            out.append(Mismatch(path, "structure", len(golden), len(actual),
                                detail="list length"))
            return out
        for i, (g, a) in enumerate(zip(golden, actual)):
            diff_payload(g, a, spec, f"{path}[{i}]", out)
        return out
    if _is_number(golden) and _is_number(actual):
        if tol.exact:
            if not (golden == actual
                    or (golden != golden and actual != actual)):
                out.append(Mismatch(path, "value", golden, actual))
        elif not tol.allows(float(golden), float(actual)):
            out.append(Mismatch(path, "tolerance", golden, actual,
                                detail=f"atol={tol.atol} rtol={tol.rtol}"))
        return out
    if type(golden) is not type(actual):
        out.append(Mismatch(path, "type", type(golden).__name__,
                            type(actual).__name__))
        return out
    if golden != actual:
        out.append(Mismatch(path, "value", golden, actual))
    return out
