"""Cost-model validation: estimated ratios vs simulated makespan ratios.

The paper evaluates *estimated* costs only; this bench closes the loop
by executing the plans on the cluster simulator and comparing two
ratios per script:

* estimated:  cost(CSE plan) / cost(conventional plan);
* simulated:  makespan(CSE plan) / makespan(conventional plan),

where the makespan model charges the slowest partition per compute
operator and the full volume per exchange.  The cost model is validated
if the CSE plan also *runs* faster in every case and the two ratios
agree in direction.
"""

from __future__ import annotations

import pytest

from repro.api import optimize_script
from repro.exec import Cluster, ColumnarExecutor
from repro.optimizer.cost import CostParams
from repro.optimizer.engine import OptimizerConfig
from repro.workloads.datagen import generate_for_catalog
from repro.workloads.paper_scripts import PAPER_SCRIPTS, make_exec_catalog

MACHINES = 4


def measure(script: str):
    catalog = make_exec_catalog()
    config = OptimizerConfig(cost_params=CostParams(machines=MACHINES))
    files = generate_for_catalog(catalog, seed=47)
    outcomes = {}
    for label, exploit in (("conventional", False), ("cse", True)):
        result = optimize_script(
            PAPER_SCRIPTS[script], catalog, config, exploit_cse=exploit
        )
        cluster = Cluster(machines=MACHINES)
        for path, rows in files.items():
            cluster.load_file(path, rows)
        executor = ColumnarExecutor(cluster, validate=True)
        executor.execute(result.plan)
        outcomes[label] = (result.cost, executor.metrics.simulated_makespan)
    est_ratio = outcomes["cse"][0] / outcomes["conventional"][0]
    sim_ratio = outcomes["cse"][1] / outcomes["conventional"][1]
    return est_ratio, sim_ratio


@pytest.mark.parametrize("script", sorted(PAPER_SCRIPTS))
def test_cse_also_wins_in_simulation(script):
    est_ratio, sim_ratio = measure(script)
    assert est_ratio < 1.0
    assert sim_ratio < 1.0, (
        f"{script}: estimated win ({est_ratio:.2f}) did not materialize "
        f"in simulation ({sim_ratio:.2f})"
    )


def test_estimated_and_simulated_orderings_agree():
    """Ranking the four scripts by estimated saving should broadly match
    the simulated ranking (rank correlation > 0)."""
    est, sim = {}, {}
    for script in PAPER_SCRIPTS:
        est[script], sim[script] = measure(script)
    est_rank = sorted(est, key=est.get)
    sim_rank = sorted(sim, key=sim.get)
    # Spearman-ish: count pairwise agreements.
    agree = 0
    total = 0
    names = list(PAPER_SCRIPTS)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            total += 1
            if (est[a] < est[b]) == (sim[a] < sim[b]):
                agree += 1
    assert agree / total >= 0.5


def test_print_validation_table(capsys):
    with capsys.disabled():
        print("\n=== Cost-model validation (estimated vs simulated) ===")
        print(f"{'script':<8}{'estimated ratio':>17}{'simulated ratio':>17}")
        for script in sorted(PAPER_SCRIPTS):
            est_ratio, sim_ratio = measure(script)
            print(f"{script:<8}{est_ratio:>17.2f}{sim_ratio:>17.2f}")


@pytest.mark.parametrize("script", ["S1"])
def test_bench_simulated_execution(benchmark, script):
    result = benchmark(lambda: measure(script))
    assert result[0] < 1.0
