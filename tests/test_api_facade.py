"""The ``repro.api`` facade exports entry points and nothing else.

A name belongs in ``repro.api`` only if it is an entry point, a type
some entry point's signature takes or returns, or an error an entry
point raises; everything else is imported from its own module.  The
audit is mechanical: ``__all__`` must list exactly the public
non-module attributes, every name must resolve, every function must be
a listed entry point, and every other name must appear in an entry
point's annotations or be a :class:`~repro.errors.ScaloError`.
"""

import inspect
import re

import repro
from repro import api
from repro.errors import ScaloError


def _public_attrs(module) -> set[str]:
    return {
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and not inspect.ismodule(value)
        and name != "annotations"
    }


def test_api_all_matches_public_attributes():
    declared = set(api.__all__)
    actual = _public_attrs(api)
    assert declared == actual, (
        f"missing from __all__: {sorted(actual - declared)}; "
        f"listed but absent: {sorted(declared - actual)}"
    )


def test_api_all_names_resolve_and_are_unique():
    assert len(api.__all__) == len(set(api.__all__))
    for name in api.__all__:
        assert getattr(api, name) is not None


ENTRY_POINTS = {
    "build_system", "run_query", "run_scenario", "serve_session",
    "build_fabric", "run_fleet_query", "run_population_query",
    "fabric_session", "solve_schedule", "chaos_sweep", "run_storm",
    "run_partition_storm", "run_isolation_gate",
}


def _annotation_names(function) -> set[str]:
    """Every identifier in a function's parameter and return annotations."""
    signature = inspect.signature(function)
    annotations = [p.annotation for p in signature.parameters.values()]
    annotations.append(signature.return_annotation)
    names: set[str] = set()
    for annotation in annotations:
        if annotation is inspect.Signature.empty:
            continue
        if not isinstance(annotation, str):
            annotation = inspect.formatannotation(annotation)
        names.update(re.findall(r"[A-Za-z_]\w*", annotation))
    return names


def test_api_exports_only_entry_points_their_types_and_errors():
    assert ENTRY_POINTS <= set(api.__all__)
    assert len(api.__all__) <= 45
    annotated = set().union(
        *(_annotation_names(getattr(api, name)) for name in ENTRY_POINTS)
    )
    for name in api.__all__:
        value = getattr(api, name)
        if inspect.isfunction(value):
            assert name in ENTRY_POINTS, f"{name} is not an entry point"
        elif not (
            inspect.isclass(value) and issubclass(value, ScaloError)
        ):
            assert name in annotated, (
                f"{name} is neither in an entry point's signature "
                "nor an error"
            )


def test_root_package_exports_fabric_entry_points():
    for name in (
        "FleetFabric", "FabricConfig", "FabricLoadConfig", "FabricReport",
        "ShardMap", "fabric_session", "run_isolation_gate",
    ):
        assert name in repro.__all__
        assert getattr(repro, name) is not None


def test_root_package_all_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None
