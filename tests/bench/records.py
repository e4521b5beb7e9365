"""Synthetic ``benchmarks/e2e/run.py --out`` records for the bench tests."""

import json

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "packets_per_s": "Mpkt/s"}


def e2e_record(metrics, *, layers=None, sha="cafe0000", machine=None, correct=True, schema=1):
    """A record shaped like ``run.py --out`` writes it.

    ``metrics`` maps workload -> {metric: median}; ``layers`` maps
    workload -> {ledger name: value} for a traced run (``None``: untraced).
    """
    layers = layers or {}
    return {
        "schema": schema,
        "git_sha": sha,
        "machine": machine or {"python": "3.11.7", "cpu_count": 2},
        "seed": 20220101,
        "seconds": 40.0,
        "trace": int(bool(layers)),
        "workloads": {
            name: {
                "workload": name,
                "metrics": {
                    metric: {
                        "value": value,
                        "unit": UNITS.get(metric, "s"),
                        "n": 3,
                        "samples": [value] * 3,
                    }
                    for metric, value in values.items()
                },
                "layers": layers.get(name),
                "attempted": 4,
                "failed": 0 if correct else 1,
                "correct": correct,
            }
            for name, values in metrics.items()
        },
    }


def write_record(path, metrics, **kwargs):
    """Write :func:`e2e_record` to ``path``; return the path."""
    path.write_text(json.dumps(e2e_record(metrics, **kwargs)), encoding="utf-8")
    return path


OBSERVE = "synth.HoneyfarmSimulator.observe_month.self_s"
TEMPORAL = "core.temporal_correlation.self_s"


def stepped(i, step_at):
    """Run ``i`` of a trajectory whose ``report`` run slows at ``step_at``.

    ``report/wall_s`` steps from 2.4 to 3.4 s, and the ledger's
    ``observe_month`` self time moves with it (0.07 -> 1.07 s); the
    correlation core stays put and ``window-ooc`` is flat throughout.
    """
    slow = i >= step_at
    return e2e_record(
        {
            "report": {"wall_s": 3.4 if slow else 2.4, "peak_rss_mb": 221.0},
            "window-ooc": {"wall_s": 5.0},
        },
        layers={
            "report": {
                OBSERVE: 1.07 if slow else 0.07,
                TEMPORAL: 0.15,
                "synth.HoneyfarmSimulator.observe_month.calls": 15.0,
            }
        },
        sha=f"cafe{i:04d}",
    )
