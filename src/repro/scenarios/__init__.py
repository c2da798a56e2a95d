"""Declarative scenarios: whole serving experiments as documents.

A scenario is one plain JSON document (stdlib only — no YAML) that
composes everything the serving stack can do — topology, tenant mix
(open- and closed-loop), load ramps, chaos schedules, autoscaling —
plus a ``checks`` section of declared pass/fail gates.  The package
provides:

* the schema (:mod:`~repro.scenarios.spec`),
* a validating loader with precise, path-annotated error messages
  (:mod:`~repro.scenarios.loader`),
* the platform preset and ingest placement policies every serving cell
  is built from (:mod:`~repro.scenarios.platform`),
* deterministic spec -> cell materialization
  (:mod:`~repro.scenarios.materialize` — :func:`build_scenario` is the
  one place a description becomes ``(pfs, ServeConfig)``),
* the check catalog (:mod:`~repro.scenarios.checks`), and
* a library of named scenarios under ``library/`` — run them all with
  ``python -m repro.harness scenario-bench``.

Dependencies run one way: ``repro.harness`` builds on this package,
never the reverse.
"""

from .checks import CHECKS, CheckDef, evaluate_check, evaluate_checks, validate_check
from .loader import (
    LIBRARY_DIR,
    library_names,
    library_path,
    load_library,
    load_scenario,
)
from .materialize import (
    build_scenario,
    reference_spec,
    run_scenario,
    scenario_platform,
)
from .spec import SCHEMA_SECTIONS, CheckSpec, ScenarioSpec, TopologySpec

__all__ = [
    "CHECKS",
    "CheckDef",
    "CheckSpec",
    "LIBRARY_DIR",
    "SCHEMA_SECTIONS",
    "ScenarioSpec",
    "TopologySpec",
    "build_scenario",
    "evaluate_check",
    "evaluate_checks",
    "library_names",
    "library_path",
    "load_library",
    "load_scenario",
    "reference_spec",
    "run_scenario",
    "scenario_platform",
    "validate_check",
]
