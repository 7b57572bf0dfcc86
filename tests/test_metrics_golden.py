"""Golden files pin the exported metrics of three seeded runs.

The determinism tests elsewhere compare two runs in one process; these
compare against files committed under ``tests/golden/``, so a change to
what the registry stores or how the exporters render it fails here: an
integer series such as ``arq.attempts`` whose min/max ``1``/``3`` turn
into ``1.0``/``3.0``, or a reordered row.

The pinned runs are on simulated time only: none of them times a
scheduler solve on the wall clock.  After a deliberate change to the
exported metrics, rewrite the goldens with::

    PYTHONPATH=src python tests/test_metrics_golden.py
"""

import pathlib

import pytest

from repro.eval.reporting import telemetry_summary
from repro.serving import LoadGenConfig, serve_session
from repro.telemetry import Telemetry, write_metrics_csv
from repro.telemetry.scenarios import run_scenario

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _csv_bytes(telemetry: Telemetry, scratch: pathlib.Path) -> bytes:
    return write_metrics_csv(telemetry.registry, scratch).read_bytes()


def _serve_telemetry() -> Telemetry:
    telemetry = Telemetry()
    serve_session(
        load=LoadGenConfig(n_requests=64, offered_qps=40.0, seed=0),
        telemetry=telemetry,
    )
    return telemetry


def render_goldens(scratch: pathlib.Path) -> dict[str, bytes]:
    """Every golden file's expected bytes, keyed by file name."""
    recover = run_scenario("recover", seed=0)
    return {
        "recover_metrics.csv": _csv_bytes(recover, scratch / "recover.csv"),
        "seizure_metrics.csv": _csv_bytes(
            run_scenario("seizure", seed=0), scratch / "seizure.csv"
        ),
        "serve_metrics.csv": _csv_bytes(
            _serve_telemetry(), scratch / "serve.csv"
        ),
        "recover_summary.txt": (
            telemetry_summary(recover.registry) + "\n"
        ).encode(),
    }


@pytest.fixture(scope="module")
def rendered(tmp_path_factory) -> dict[str, bytes]:
    return render_goldens(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize(
    "name",
    [
        "recover_metrics.csv",
        "seizure_metrics.csv",
        "serve_metrics.csv",
        "recover_summary.txt",
    ],
)
def test_export_matches_golden(rendered, name):
    expected = (GOLDEN_DIR / name).read_bytes()
    assert rendered[name] == expected, (
        f"exported metrics drifted from tests/golden/{name}"
    )


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for fname, data in render_goldens(pathlib.Path(tmp)).items():
            (GOLDEN_DIR / fname).write_bytes(data)
            print(f"wrote {GOLDEN_DIR / fname}")
