"""The rows of ``scripts/step_rates.py`` that reach the stepping loop's
internals, each built and called once: the script is the only source of
the per-step table, so a change to those internals must keep it running."""

import importlib.util
import os

from kimura_lab.operators import derive_singular_from_standard, operator_from_json
from kimura_lab.sde import build_sde_coefficients, make_girsanov_field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "step_rates", os.path.join(ROOT, "scripts", "step_rates.py")
)
step_rates = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_rates)


def test_the_rows_on_simulate_internals_build_and_run():
    harnack = build_sde_coefficients(operator_from_json(step_rates._model("harnack_scan.json")))
    girsanov = operator_from_json(step_rates._model("girsanov_consistency.json"))
    pair = make_girsanov_field(girsanov, derive_singular_from_standard(girsanov))
    for row in (step_rates._step(harnack), step_rates._bound_pair_step(pair, 8),
                step_rates._group_step(*step_rates._harnack_group(0)),
                step_rates._group_step(*step_rates._harnack_group(1))):
        row()
