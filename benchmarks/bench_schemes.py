"""Benchmarks of host-side helpers: modulus switching, the cycle-level
simulator that validates the analytic device model, and the planner.
"""

def test_bench_modulus_switch(benchmark, tiny_crypto):
    from repro.core.modswitch import switch_modulus
    from repro.poly.modring import find_ntt_prime

    ct = tiny_crypto.encrypt_slots([9, -4])
    q40 = find_ntt_prime(40, tiny_crypto.params.poly_degree)
    switched = benchmark(lambda: switch_modulus(ct, q40))
    assert switched.params.coeff_modulus == q40


def test_bench_dpu_simulator(benchmark):
    """Cycle-level simulation of a 16-tasklet streaming multiply."""
    from repro.pim.kernels import VecMulKernel
    from repro.pim.sim import simulate_kernel

    kernel = VecMulKernel(4)
    result = benchmark.pedantic(
        lambda: simulate_kernel(kernel, 256, tasklets=16),
        iterations=1,
        rounds=3,
    )
    assert result.issue_utilization > 0.9


def test_bench_planner(benchmark):
    from repro.core.params import BFVParameters
    from repro.core.planner import CircuitShape, plan_budget

    params = BFVParameters.security_level(109)
    shape = CircuitShape(multiplicative_depth=1, additions_per_level=640)
    plan = benchmark(lambda: plan_budget(params, shape))
    assert plan.feasible
