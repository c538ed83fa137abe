"""The benchmark's tracer still finds the layers it times.

``bench/tracing.py`` wraps functions by name in the module namespace where
the program looks them up, so a name the program stops binding there reads
0 in the benchmark instead of failing.  One tiny traced cell per mode pins
which layers record spans and which traced names are absent.
"""

import types
from pathlib import Path

import pytest

from poissonpolymer.cli import MODES, main

# executed from its source, so nothing (not even bytecode) is written under bench/
_SOURCE = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
tracing = types.ModuleType("bench_tracing")
exec(compile(_SOURCE.read_text(), str(_SOURCE), "exec"), tracing.__dict__)

# traced names the program binds nowhere: the streamed field report builds
# the field and computes the reductions, the annealed loop counts its draws
# inline, and the coupled ensemble adds tube counts instead of merging clouds
ABSENT = {
    "poissonpolymer.cli.dp_dnu_fd",
    "poissonpolymer.estimators.occupancy_field",
    "poissonpolymer.estimators.assert_two_to_one",
    "poissonpolymer.estimators.replica_overlap",
    "poissonpolymer.estimators.favourite_path",
    "poissonpolymer.estimators.favourite_overlap",
    "poissonpolymer.estimators.delta_sets",
    "poissonpolymer.estimators.count_in_tube",
    "poissonpolymer.estimators.superpose",
}

PATH_LAYERS = {"polymer.sample_paths", "polymer.build_ensemble",
               "environment.batch_tube_counts"}
FIELD_LAYERS = PATH_LAYERS | {"polymer.occupancy_field", "polymer.assert_two_to_one"}
LAYERS_BUILT = {"quenched": PATH_LAYERS, "annealed": set(), "localization": PATH_LAYERS,
                "dp-dbeta": PATH_LAYERS, "dp-dnu": PATH_LAYERS}


@pytest.mark.parametrize("mode", MODES)
def test_traced_cell_records_its_layers(tmp_path, mode):
    config = tmp_path / "run.cfg"
    config.write_text("d = 1\nbeta = 0.5\nnu = 1\nt = 1\nn_steps = 8\n"
                      f"paths_per_env = 20\nn_envs = 1\nseed = 3\nmode = {mode}\n")
    with tracing.Tracer() as tracer:
        assert main(["simulate", str(config), "--out", str(tmp_path / "out")]) == 0
    assert set(tracer.missing) == ABSENT
    recorded = {name for name, *_ in tracer.spans}
    assert recorded & FIELD_LAYERS == LAYERS_BUILT[mode]
