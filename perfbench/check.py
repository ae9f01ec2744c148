"""Output checks: compare a pass's output directory with the reference one.

Rules, applied to every file of the reference directory (a missing or
extra file fails the check):

* Integers must match exactly.  In text files (CSV, stdout) a number
  without a decimal point or exponent is an integer: ranks, parameter
  counts, steps, seeds.  In JSON, ``int`` values.  In binary matrices,
  the header (magic, version, rows, cols).
* Floats must agree within ``rtol`` relative to the larger magnitude of
  the pair.  In a binary matrix the magnitude is at least the largest
  one in the reference matrix, because trained factors start at zero.
  A float in stdout (``*.txt``) may also differ by one unit in its last
  printed digit, since a last-ulp change can flip the rounding of
  ``%.6e``; CSV files print 17 significant digits and get no such slack.
* All other text must match exactly.
* The sidecar ``*.meta.json`` is compared, and hashed, without its
  ``timestamp`` key.

Every file's SHA-256 is recorded; a pass is bit-exact when all hashes
equal the reference's.
"""

from __future__ import annotations

import hashlib
import json
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
_HEADER = struct.Struct("<4sBII")


@dataclass
class Result:
    problems: list[str] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)
    bit_exact: bool = True
    max_rel_diff: float = 0.0


def file_bytes(path: Path) -> bytes:
    """The bytes that are hashed: the file, or for a sidecar its canonical
    JSON without the timestamp."""
    blob = path.read_bytes()
    if path.name.endswith(".meta.json"):
        try:
            meta = json.loads(blob)
        except ValueError:  # malformed: hashed as is, and the comparison reports it
            return blob
        if isinstance(meta, dict):
            meta.pop("timestamp", None)
        return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    return blob


def hash_dir(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(file_bytes(p)).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


def compare_dirs(actual: Path, expected: Path, rtol: float) -> Result:
    result = Result(hashes=hash_dir(actual))
    reference = hash_dir(expected)
    for name in sorted(set(reference) - set(result.hashes)):
        result.problems.append(f"{name}: missing")
    for name in sorted(set(result.hashes) - set(reference)):
        result.problems.append(f"{name}: not expected")
    for name in sorted(set(reference) & set(result.hashes)):
        if reference[name] == result.hashes[name]:
            continue
        result.bit_exact = False
        try:
            worst = _compare_file(actual / name, expected / name, rtol)
        except (Mismatch, ValueError) as exc:  # ValueError: unparsable JSON or text
            result.problems.append(f"{name}: {exc}")
        else:
            result.max_rel_diff = max(result.max_rel_diff, worst)
    if result.problems:
        result.bit_exact = False
    return result


class Mismatch(Exception):
    pass


def _compare_file(actual: Path, expected: Path, rtol: float) -> float:
    """Largest float difference relative to its tolerance base, or Mismatch."""
    if expected.suffix == ".smoa":
        return _compare_matrix(actual.read_bytes(), expected.read_bytes(), rtol)
    if expected.suffix == ".json":
        a = json.loads(file_bytes(actual))
        e = json.loads(file_bytes(expected))
        floats: list[tuple[float, float]] = []
        _walk_json(a, e, "$", floats)
        return _compare_floats([x for x, _ in floats], [y for _, y in floats], rtol)
    return _compare_text(actual.read_text(encoding="utf-8"),
                         expected.read_text(encoding="utf-8"), rtol,
                         rounded=expected.suffix == ".txt")


def _compare_matrix(a: bytes, e: bytes, rtol: float) -> float:
    if len(a) < _HEADER.size:
        raise Mismatch(f"truncated header ({len(a)} bytes)")
    if _HEADER.unpack_from(a) != _HEADER.unpack_from(e):
        raise Mismatch(f"header {_HEADER.unpack_from(a)} != {_HEADER.unpack_from(e)}")
    if len(a) != len(e):
        raise Mismatch(f"{len(a)} bytes, expected {len(e)}")
    want = np.frombuffer(e, "<f8", offset=_HEADER.size)
    return _compare_floats(np.frombuffer(a, "<f8", offset=_HEADER.size), want, rtol,
                           floor=float(np.max(np.abs(want))))


def _walk_json(a, e, where: str, floats: list) -> None:
    if isinstance(e, dict):
        if not isinstance(a, dict) or sorted(a) != sorted(e):
            raise Mismatch(f"{where}: keys differ")
        for key in e:
            _walk_json(a[key], e[key], f"{where}.{key}", floats)
    elif isinstance(e, list):
        if not isinstance(a, list) or len(a) != len(e):
            raise Mismatch(f"{where}: lengths differ")
        for i, (x, y) in enumerate(zip(a, e)):
            _walk_json(x, y, f"{where}[{i}]", floats)
    elif isinstance(e, float) and isinstance(a, (int, float)) and not isinstance(a, bool):
        floats.append((float(a), e))
    elif type(a) is not type(e) or a != e:
        raise Mismatch(f"{where}: {a!r} != {e!r}")


def _compare_text(a: str, e: str, rtol: float, rounded: bool) -> float:
    a_lines, e_lines = a.splitlines(), e.splitlines()
    if len(a_lines) != len(e_lines):
        raise Mismatch(f"{len(a_lines)} lines, expected {len(e_lines)}")
    got, want, quanta = [], [], []
    for n, (la, le) in enumerate(zip(a_lines, e_lines), start=1):
        na, ne = _NUMBER.findall(la), _NUMBER.findall(le)
        if _NUMBER.split(la) != _NUMBER.split(le) or len(na) != len(ne):
            raise Mismatch(f"line {n}: {la!r} != {le!r}")
        for x, y in zip(na, ne):
            if _is_int(y) or _is_int(x):
                if x != y:
                    raise Mismatch(f"line {n}: integer {x} != {y}")
            else:
                got.append(float(x))
                want.append(float(y))
                quanta.append(_last_place(y) if rounded else 0.0)
    return _compare_floats(got, want, rtol, slack=np.asarray(quanta))


def _is_int(token: str) -> bool:
    return not any(c in token for c in ".eE")


def _last_place(token: str) -> float:
    """Value of one unit in the last printed digit of a float token."""
    mantissa, _, exponent = token.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def _compare_floats(got, want, rtol: float, floor: float = 0.0, slack=0.0) -> float:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.size == 0:
        return 0.0
    if not np.all(np.isfinite(got)):
        raise Mismatch("non-finite value")
    diff = np.abs(got - want)
    base = np.maximum(np.maximum(np.abs(got), np.abs(want)), floor)
    bad = diff > rtol * base + slack
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise Mismatch(f"value {got[i]!r} not within rtol {rtol:g} of {want[i]!r}")
    nonzero = base > 0
    return float(np.max(diff[nonzero] / base[nonzero])) if nonzero.any() else 0.0
