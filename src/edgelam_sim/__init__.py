"""Deterministic desk-scale simulator for collaborative edge LAM deployment.

Modules map to the functional areas: ``numerics`` (shared linear
algebra), ``netsim`` (devices/channels/latency), ``fedft`` (heterogeneous
federated LoRA fine-tuning), ``unlearn`` (projection-based federated
unlearning), ``moe_orchestrator`` (drift-plus-penalty expert scheduling),
``cot_placement`` (chain placement solvers), ``casestudy`` (token-budget
cost model) and ``scenarios``/``cli`` (the runner harness).
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
