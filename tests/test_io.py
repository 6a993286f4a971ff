"""The CSV writer's contract: ``io.write_csv`` formats whole columns and
writes the same text as a per-cell reference formatter (shortest round-trip
floats, "1"/"0" for bools, ``str`` for integers), block after block."""

import numpy as np
import pytest

from topochain import instantaneous_spectrum, io, pump_schedule
from topochain.dynamics import Trajectory, sigma_z
from topochain.effective import arc
from topochain.models import schedule_arrays


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _reference(header, rows) -> str:
    return ",".join(header) + "\n" + "".join(",".join(map(_cell, row)) + "\n" for row in rows)


def _written(tmp_path, header, columns) -> str:
    path = io.write_csv(tmp_path / "out.csv", header, columns)
    return path.read_bytes().decode("utf-8")


def test_cells_match_the_reference_formatter(tmp_path):
    floats = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e16, 1e-5, 1e-4, 0.1, 1 / 3,
                       2.0 ** 53 + 2, 1.7976931348623157e308, 123456789.0, -2.5e-300])
    n = floats.size
    columns = [floats, np.arange(n) % 2 == 0, np.arange(-3, n - 3, dtype=np.int64),
               np.arange(n, dtype=np.uint8) * 17, np.arange(n, dtype=np.int32) * -(10 ** 8)]
    header = ["x", "flag", "i64", "u8", "i32"]
    rows = [list(row) for row in zip(*columns)]
    text = _written(tmp_path, header, columns)
    assert text == _reference(header, rows)
    assert text.splitlines()[1:6] == ["-0.0,1,-3,0,0", "0.0,0,-2,17,-100000000", "nan,1,-1,34,-200000000",
                                      "inf,0,0,51,-300000000", "-inf,1,1,68,-400000000"]
    assert "1e+16" in text and "1e-05" in text and "5e-324" in text


@pytest.mark.parametrize("width", [8, io.BLOCK_CELLS + 1], ids=["narrow", "row-per-block"])
def test_rows_span_several_blocks(tmp_path, rng, width):
    rows = 2 * max(1, io.BLOCK_CELLS // width) + 3
    matrix = rng.normal(size=(rows, width - 2)) * 10.0 ** rng.integers(-20, 20, size=(rows, width - 2))
    # strided columns, a reversed one and a bool column built from them
    columns = [*matrix.T, matrix[::-1, 0], matrix[:, 1] > 0]
    header = [f"c{j}" for j in range(width)]
    text = _written(tmp_path, header, columns)
    assert text == _reference(header, [list(row) for row in zip(*columns)])
    assert len(text.splitlines()) == rows + 1


def test_header_only(tmp_path):
    assert _written(tmp_path, ["a", "b"], [np.empty(0), np.empty(0, dtype=bool)]) == "a,b\n"


def test_trajectory_with_amplitudes(tmp_path, rng):
    n, records = 5, io.BLOCK_CELLS // 16 + 7  # 16 columns: two blocks
    states = rng.normal(size=(records, n)) + 1j * rng.normal(size=(records, n))
    states[3, 2] = -0.0 - 0.0j
    states = np.asfortranarray(states)  # the writer takes any layout
    traj = Trajectory(np.linspace(0.0, 7.0, records), states, sigma_z(states))
    header = ["t"] + [f"sz_{j}" for j in range(1, n + 1)] + [f"{p}_{j}" for j in range(1, n + 1) for p in ("re", "im")]
    rows = [[traj.times[i]] + list(traj.sz[i]) + [part for z in states[i] for part in (z.real, z.imag)]
            for i in range(records)]
    text = io.trajectory_csv(tmp_path / "traj.csv", traj, amplitudes=True).read_text(encoding="utf-8")
    assert text == _reference(header, rows)
    text = io.trajectory_csv(tmp_path / "sz.csv", traj).read_text(encoding="utf-8")
    assert text == _reference(header[: n + 1], [row[: n + 1] for row in rows])


def test_table_writers_match_their_rows(tmp_path):
    trace = instantaneous_spectrum(pump_schedule(10.0), 3, 9)
    n = trace.energies.shape[1]
    header = ["t"] + [f"E_{j}" for j in range(1, n + 1)] + [f"edge_flag_{j}" for j in range(1, n + 1)]
    rows = [[trace.times[i]] + list(trace.energies[i]) + list(trace.edge_flags[i]) for i in range(trace.times.size)]
    assert io.spectrum_trace_csv(tmp_path / "trace.csv", trace).read_text() == _reference(header, rows)

    energies, flags = trace.energies[4], trace.edge_flags[4]
    rows = [[j + 1, energies[j], flags[j]] for j in range(n)]
    text = io.static_spectrum_csv(tmp_path / "static.csv", energies, flags).read_text()
    assert text == _reference(["level", "energy", "edge_flag"], rows)

    vectors = np.linalg.qr(np.arange(1.0, 37.0).reshape(6, 6) ** 0.5)[0][:, [1, 4]]
    rows = [[site + 1] + list(vectors[site]) for site in range(6)]
    assert io.states_csv(tmp_path / "states.csv", [2, 5], vectors).read_text() == _reference(
        ["site", "state_2", "state_5"], rows)

    times = np.linspace(0.0, 50.0, 31)
    diag, off = schedule_arrays(arc(1.3, 50.0), 1, times)
    u, g = diag[:, 0], off[:, 0]
    rows = [[times[i], u[i], g[i], 0.0 - float(np.hypot(u[i], g[i])), 0.0 + float(np.hypot(u[i], g[i]))]
            for i in range(times.size)]
    text = io.lz_path_csv(tmp_path / "lz.csv", times, u, g).read_text()
    assert text == _reference(["t", "u", "g", "E_minus", "E_plus"], rows)


@pytest.mark.parametrize("column", [np.array([1.0, "x"], dtype=object), np.array([1.0 + 2.0j, 0.5]),
                                    np.array([1.0, 2.0], dtype=np.float32), np.array(["a", "b"])],
                         ids=["object", "complex", "float32", "str"])
def test_other_dtypes_raise_before_writing(tmp_path, column):
    with pytest.raises(TypeError, match="bool, integer or float64"):
        io.write_csv(tmp_path / "bad.csv", ["a", "b"], [np.zeros(2), column])
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize("columns", [[np.zeros(3)], [np.zeros(3), np.zeros(4)], [np.zeros(3), np.zeros((3, 1))]],
                         ids=["too-few", "lengths", "2-d"])
def test_columns_must_fit_the_header(tmp_path, columns):
    with pytest.raises(ValueError, match="1-D columns of one length"):
        io.write_csv(tmp_path / "bad.csv", ["a", "b"], columns)
    assert not (tmp_path / "bad.csv").exists()
