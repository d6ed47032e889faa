"""Inputs every workload needs before its first timed op.

Imports nothing at module level, so a fresh interpreter can import this
file, start its clock, and time ``import nsbox`` plus ``build`` alone.
"""

PROTOCOL_C = (1.0, 0.5)
SWEEP_C = (1.0, 0.6)
ORACLE_C = (1.0, 0.5)
CLI_C = (1.0, 0.8)  # simulate-signalling --C 1.0 and couplings --C 0.8


def build(workload: str) -> dict:
    """C -> (k_a, k_ap) coupling pair for every table the workload uses."""
    import nsbox

    if workload == "sweep-macro":
        return {c: nsbox.couplings_for_table(nsbox.CorrelationTable(c, c, c, -c)) for c in SWEEP_C}
    c_values = {"protocol": PROTOCOL_C, "exact-oracle": ORACLE_C, "cli": CLI_C}[workload]
    return {c: nsbox.make_scalar_extremal_couplings(c) for c in c_values}
