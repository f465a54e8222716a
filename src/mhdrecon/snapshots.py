"""Binary field snapshots and NDJSON diagnostics.

Snapshot layout (little-endian throughout):

    bytes 0..3    magic "MHD2"
    bytes 4..7    format version, uint32
    bytes 8..11   header length H, uint32
    bytes 12..    UTF-8 JSON header of H bytes
    then          one complex128 array (re, im float64 pairs) per field named
                  in header["fields"], each resolution^2 entries in row-major
                  wavenumber order

The header carries {format_version, time, nu, eta, resolution, fields}.
A state is stored as its vector view: the full-complex component
coefficients u1, u2, b1, b2 (SpectralField2D.components), read back through
SpectralField2D.from_components, which checks them. The arrays round-trip
bit for bit; a state read back is one rounding off the one written in psi,
which from_components recomputes from the components as
i (k1 c2 - k2 c1) / |k|^2. Diagnostics are one JSON object per line; Python's
JSON float formatting round-trips IEEE doubles exactly, so parsing recovers
the records losslessly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .fields import SpectralField2D, TorusGrid
from .solver import MHDState

MAGIC = b"MHD2"
FORMAT_VERSION = 1


class SnapshotFormatError(ValueError):
    """The bytes on disk do not form a valid snapshot."""


@dataclass
class Snapshot:
    """Parsed snapshot: JSON header plus named complex coefficient arrays."""

    header: dict
    arrays: dict[str, np.ndarray]

    @property
    def time(self) -> float:
        return float(self.header["time"])

    @property
    def resolution(self) -> int:
        return int(self.header["resolution"])


# header key -> (test of its value, what the value must be)
_HEADER_RULES = {
    "time": (lambda v: type(v) is int or type(v) is float and np.isfinite(v), "a finite number"),
    "resolution": (lambda v: type(v) is int and v >= 8 and v % 2 == 0, "an even integer >= 8"),
    "fields": (
        lambda v: isinstance(v, list) and len(v) > 0 and all(isinstance(n, str) for n in v)
        and len(set(v)) == len(v),
        "a non-empty list of distinct field names",
    ),
}


def write_snapshot(
    path,
    arrays: dict[str, np.ndarray],
    time: float,
    nu: float,
    eta: float,
) -> None:
    """Write named (M, M) complex coefficient arrays with their metadata."""
    names = list(arrays)
    if not names:
        raise SnapshotFormatError("a snapshot needs at least one field")
    resolution = arrays[names[0]].shape[0]
    for name, arr in arrays.items():
        if arr.shape != (resolution, resolution):
            raise SnapshotFormatError(f"field {name!r} has shape {arr.shape}")
    if not _HEADER_RULES["resolution"][0](resolution):
        raise SnapshotFormatError(f"resolution must be even and >= 8, got {resolution}")
    header = {
        "format_version": FORMAT_VERSION,
        "time": time,
        "nu": nu,
        "eta": eta,
        "resolution": resolution,
        "fields": names,
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.uint32(FORMAT_VERSION).tobytes())
        fh.write(np.uint32(len(blob)).tobytes())
        fh.write(blob)
        for name in names:
            fh.write(np.ascontiguousarray(arrays[name], dtype="<c16").tobytes())


def _check_header(header) -> None:
    if not isinstance(header, dict):
        raise SnapshotFormatError("snapshot header is not a JSON object")
    for key, (test, wanted) in _HEADER_RULES.items():
        if key not in header:
            raise SnapshotFormatError(f"snapshot header key {key!r} is missing")
        if not test(header[key]):
            raise SnapshotFormatError(
                f"snapshot header key {key!r}: expected {wanted}, got {header[key]!r}"
            )


def read_snapshot(path) -> Snapshot:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise SnapshotFormatError(f"bad magic {raw[:4]!r}, expected {MAGIC!r}")
    if len(raw) < 12:
        raise SnapshotFormatError("snapshot ends inside its fixed-size preamble")
    version, hlen = (int(v) for v in np.frombuffer(raw[4:12], dtype="<u4"))
    if version != FORMAT_VERSION:
        raise SnapshotFormatError(f"unsupported format version {version}")
    blob = raw[12 : 12 + hlen]
    if len(blob) != hlen:
        raise SnapshotFormatError("snapshot header is truncated")
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotFormatError(f"corrupt snapshot header: {exc}") from exc
    _check_header(header)
    m = header["resolution"]
    size = 16 * m * m
    body = raw[12 + hlen :]
    arrays = {}
    for i, name in enumerate(header["fields"]):
        chunk = body[i * size : (i + 1) * size]
        if len(chunk) != size:
            raise SnapshotFormatError(f"payload for field {name!r} is truncated")
        arrays[name] = np.frombuffer(chunk, dtype="<c16").reshape(m, m).copy()
    if len(body) > size * len(arrays):
        raise SnapshotFormatError("trailing bytes after the last field")
    return Snapshot(header=header, arrays=arrays)


def write_state_snapshot(path, state: MHDState, nu: float, eta: float) -> None:
    """Store a full MHD state as its vector view (u1, u2, b1, b2)."""
    u1, u2 = state.u.components()
    b1, b2 = state.b.components()
    write_snapshot(path, {"u1": u1, "u2": u2, "b1": b1, "b2": b2}, time=state.t, nu=nu, eta=eta)


def snapshot_to_field(snap: Snapshot, prefix: str = "b") -> SpectralField2D:
    """The field stored as the arrays prefix1, prefix2 (e.g. b1, b2).

    Raises SnapshotFormatError if they are missing and ConfigurationError,
    naming the field, if they are not a real, divergence-free, zero-average
    field.
    """
    names = [prefix + "1", prefix + "2"]
    for name in names:
        if name not in snap.arrays:
            raise SnapshotFormatError(f"snapshot has no field {name!r}")
    return SpectralField2D.from_components(
        TorusGrid(snap.resolution),
        np.stack([snap.arrays[name] for name in names]),
        name=f"snapshot field {prefix!r}",
    )


def snapshot_to_state(snap: Snapshot) -> MHDState:
    return MHDState(snapshot_to_field(snap, "u"), snapshot_to_field(snap, "b"), snap.time)


@dataclass
class DiagnosticsRecord:
    """One diagnostics line: scalar invariants plus requested Sobolev norms."""

    t: float
    energy_u: float
    energy_b: float
    cross_helicity: float
    sobolev: dict = field(default_factory=dict)      # name -> [H^0 .. H^rmax]
    signature: dict | None = None                    # topology counts, when sampled

    def to_json(self) -> str:
        d = asdict(self)
        if d["signature"] is None:
            del d["signature"]
        return json.dumps(d)

    @classmethod
    def from_json(cls, line: str) -> "DiagnosticsRecord":
        d = json.loads(line)
        return cls(
            t=d["t"],
            energy_u=d["energy_u"],
            energy_b=d["energy_b"],
            cross_helicity=d["cross_helicity"],
            sobolev=d.get("sobolev", {}),
            signature=d.get("signature"),
        )


def write_ndjson(path, records: list[DiagnosticsRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec.to_json())
            fh.write("\n")


def read_ndjson(path) -> list[DiagnosticsRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(DiagnosticsRecord.from_json(line))
    return records
