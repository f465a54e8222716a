"""Binary snapshot format and NDJSON diagnostics round-trips."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mhdrecon.fields import (
    ConfigurationError,
    TaylorSpec,
    TorusGrid,
    make_taylor,
    make_tilde_t1,
    zero_field,
)
from mhdrecon.snapshots import (
    MAGIC,
    DiagnosticsRecord,
    Snapshot,
    SnapshotFormatError,
    read_ndjson,
    read_snapshot,
    snapshot_to_field,
    snapshot_to_state,
    write_ndjson,
    write_snapshot,
    write_state_snapshot,
)
from mhdrecon.solver import MHDState


class TestSnapshotRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(123)
        arrays = {
            "b1": rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)),
            "b2": rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)),
        }
        path = tmp_path / "f.snap"
        write_snapshot(path, arrays, time=0.125, nu=0.5, eta=0.25)
        snap = read_snapshot(path)
        assert snap.header["fields"] == ["b1", "b2"]
        assert snap.time == 0.125
        for name in arrays:
            assert np.array_equal(snap.arrays[name], arrays[name])
            assert snap.arrays[name].dtype == np.complex128

    @given(
        data=hnp.arrays(
            dtype=np.complex128,
            shape=(8, 8),
            elements=st.complex_numbers(
                allow_nan=False, allow_infinity=False, max_magnitude=1e100
            ),
        )
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_arbitrary_payload_bit_exact(self, tmp_path, data):
        path = tmp_path / "h.snap"
        write_snapshot(path, {"b1": data}, time=0.0, nu=0.0, eta=0.0)
        back = read_snapshot(path).arrays["b1"]
        assert back.tobytes() == np.ascontiguousarray(data).tobytes()

    def test_state_round_trip(self, tmp_path):
        grid = TorusGrid(16)
        st_in = MHDState(zero_field(grid), make_taylor(TaylorSpec(2, 1), 0.7, grid), 1.5)
        path = tmp_path / "state.snap"
        write_state_snapshot(path, st_in, nu=0.1, eta=0.2)
        snap = read_snapshot(path)
        # the file holds the vector view bit for bit; reading it back into
        # stream functions is exact up to roundoff
        assert np.array_equal(np.stack([snap.arrays["b1"], snap.arrays["b2"]]),
                              st_in.b.components())
        st_out = snapshot_to_state(snap)
        assert st_out.t == 1.5
        scale = np.abs(st_in.b.psi).max()
        assert np.abs(st_out.b.psi - st_in.b.psi).max() <= 1e-15 * scale
        assert np.array_equal(st_out.u.psi, st_in.u.psi)
        field = snapshot_to_field(snap, "b")
        assert np.array_equal(field.psi, st_out.b.psi)

    def test_header_metadata(self, tmp_path):
        grid = TorusGrid(16)
        st_in = MHDState(zero_field(grid), make_taylor(TaylorSpec(1, 1), 1.0, grid), 0.0)
        path = tmp_path / "meta.snap"
        write_state_snapshot(path, st_in, nu=0.25, eta=0.125)
        header = read_snapshot(path).header
        assert header["nu"] == 0.25 and header["eta"] == 0.125
        assert header["resolution"] == 16
        assert header["format_version"] == 1


class TestSnapshotErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.snap"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(SnapshotFormatError, match="magic"):
            read_snapshot(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.snap"
        arrays = {"b1": np.zeros((8, 8), dtype=complex)}
        write_snapshot(path, arrays, time=0.0, nu=0.0, eta=0.0)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(SnapshotFormatError, match="truncated"):
            read_snapshot(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "trail.snap"
        write_snapshot(path, {"b1": np.zeros((8, 8), dtype=complex)}, time=0, nu=0, eta=0)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(SnapshotFormatError, match="trailing"):
            read_snapshot(path)

    def test_empty_field_list(self, tmp_path):
        with pytest.raises(SnapshotFormatError):
            write_snapshot(tmp_path / "e.snap", {}, time=0, nu=0, eta=0)

    def test_resolution_below_eight_not_written(self, tmp_path):
        with pytest.raises(SnapshotFormatError, match="resolution"):
            write_snapshot(tmp_path / "r.snap", {"b1": np.zeros((4, 4), dtype=complex)},
                           time=0, nu=0, eta=0)


def _valid_snapshot_bytes(tmp_path) -> bytes:
    path = tmp_path / "valid.snap"
    b = make_tilde_t1(TorusGrid(8)).components()
    write_snapshot(path, {"b1": b[0], "b2": b[1]}, time=0.5, nu=0.0, eta=0.0)
    return path.read_bytes()


def _with_header(header, payload_fields: int = 1, m: int = 8) -> bytes:
    """A snapshot file with the given JSON header and a payload of zero arrays."""
    blob = json.dumps(header).encode("utf-8")
    return (MAGIC + np.uint32(1).tobytes() + np.uint32(len(blob)).tobytes() + blob
            + bytes(16 * m * m * payload_fields))


_GOOD_HEADER = {"format_version": 1, "time": 0.0, "nu": 0.0, "eta": 0.0, "resolution": 8,
                "fields": ["b1"]}


class TestMalformedSnapshots:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_every_proper_prefix_rejected(self, tmp_path, data):
        raw = _valid_snapshot_bytes(tmp_path)
        cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        path = tmp_path / "prefix.snap"
        path.write_bytes(raw[:cut])
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    def test_prefixes_at_the_section_boundaries_rejected(self, tmp_path):
        raw = _valid_snapshot_bytes(tmp_path)
        hlen = int(np.frombuffer(raw[8:12], dtype="<u4")[0])
        path = tmp_path / "prefix.snap"
        for cut in (0, 3, 4, 7, 8, 11, 12, 12 + hlen - 1, 12 + hlen, len(raw) - 1):
            path.write_bytes(raw[:cut])
            with pytest.raises(SnapshotFormatError):
                read_snapshot(path)

    @pytest.mark.parametrize("key, value, match", [
        ("resolution", None, "'resolution' is missing"),
        ("resolution", 7, "'resolution'"),
        ("resolution", 4, "'resolution'"),
        ("resolution", "8", "'resolution'"),
        ("resolution", 8.0, "'resolution'"),
        ("resolution", True, "'resolution'"),
        ("fields", None, "'fields' is missing"),
        ("fields", "b1", "'fields'"),
        ("fields", [], "'fields'"),
        ("fields", [1], "'fields'"),
        ("fields", ["b1", "b1"], "'fields'"),
        ("time", None, "'time' is missing"),
        ("time", "0", "'time'"),
        ("time", float("nan"), "'time'"),
    ])
    def test_bad_header_key_named(self, tmp_path, key, value, match):
        header = dict(_GOOD_HEADER)
        if value is None:
            del header[key]
        else:
            header[key] = value
        path = tmp_path / "bad.snap"
        path.write_bytes(_with_header(header))
        with pytest.raises(SnapshotFormatError, match=match):
            read_snapshot(path)

    @given(header=st.one_of(
        st.none(), st.booleans(), st.integers(), st.text(max_size=8),
        st.lists(st.integers(), max_size=3),
        st.dictionaries(st.sampled_from(["time", "resolution", "fields", "nu"]),
                        st.one_of(st.none(), st.integers(-4, 64), st.floats(allow_nan=True),
                                  st.text(max_size=4), st.lists(st.text(max_size=3), max_size=3)),
                        max_size=4),
    ))
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_headers_raise_format_errors(self, tmp_path, header):
        path = tmp_path / "mutated.snap"
        path.write_bytes(_with_header(header))
        try:
            snap = read_snapshot(path)
        except SnapshotFormatError:
            return
        # a header that passes is a valid one: its payload is exactly one zero field
        assert snap.header["resolution"] == 8 and snap.header["fields"] == [header["fields"][0]]

    def test_non_solenoidal_field_rejected_by_name(self, tmp_path):
        # b = (sin x, 0) is a gradient, not a magnetic field
        grid = TorusGrid(16)
        b1 = np.zeros(grid.shape, dtype=complex)
        b1[1, 0], b1[-1, 0] = -0.5j, 0.5j
        path = tmp_path / "grad.snap"
        write_snapshot(path, {"b1": b1, "b2": np.zeros_like(b1)}, time=0.0, nu=0.0, eta=0.0)
        with pytest.raises(ConfigurationError, match="snapshot field 'b' is not divergence-free"):
            snapshot_to_field(read_snapshot(path))

    @pytest.mark.parametrize("component, bad", [(0, np.nan), (1, np.inf), (1, complex(0, -np.inf))])
    def test_non_finite_field_rejected_by_name(self, tmp_path, component, bad):
        comps = make_tilde_t1(TorusGrid(16)).components()
        comps[component, 0, 1] = bad
        path = tmp_path / "bad.snap"
        write_snapshot(path, {"b1": comps[0], "b2": comps[1]}, time=0.0, nu=0.0, eta=0.0)
        with pytest.raises(ConfigurationError,
                           match="snapshot field 'b' has non-finite coefficients"):
            snapshot_to_field(read_snapshot(path))

    def test_missing_component_named(self, tmp_path):
        path = tmp_path / "half.snap"
        write_snapshot(path, {"b1": np.zeros((8, 8), dtype=complex)}, time=0.0, nu=0.0, eta=0.0)
        with pytest.raises(SnapshotFormatError, match="'b2'"):
            snapshot_to_field(read_snapshot(path))


class TestDiagnosticsNDJSON:
    def _records(self):
        return [
            DiagnosticsRecord(
                t=0.1 * k,
                energy_u=np.pi * k,
                energy_b=1e-17 + k,
                cross_helicity=-0.3 * k,
                sobolev={"u": [1.0, 2.0 + 1e-12], "b": [0.5, 0.25]},
                signature={"n_saddles": 2, "n_centers": 2} if k == 2 else None,
            )
            for k in range(4)
        ]

    def test_lossless_round_trip(self, tmp_path):
        records = self._records()
        path = tmp_path / "diag.ndjson"
        write_ndjson(path, records)
        back = read_ndjson(path)
        assert back == records

    def test_float_exactness(self, tmp_path):
        exotic = DiagnosticsRecord(
            t=1e-308, energy_u=np.nextafter(1.0, 2.0), energy_b=0.1 + 0.2,
            cross_helicity=-0.0,
        )
        path = tmp_path / "x.ndjson"
        write_ndjson(path, [exotic])
        back = read_ndjson(path)[0]
        assert back.t == 1e-308
        assert back.energy_u == np.nextafter(1.0, 2.0)
        assert back.energy_b == 0.1 + 0.2

    def test_one_object_per_line(self, tmp_path):
        path = tmp_path / "lines.ndjson"
        write_ndjson(path, self._records())
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 4
        for line in lines:
            json.loads(line)

    def test_times_strictly_increasing(self, tmp_path):
        path = tmp_path / "t.ndjson"
        write_ndjson(path, self._records())
        ts = [r.t for r in read_ndjson(path)]
        assert all(a < b for a, b in zip(ts, ts[1:]))
