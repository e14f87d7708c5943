"""Benchmark of the STG implementability checker (see README.md)."""

import json
import os
from typing import Dict

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")


def declared_metrics(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` declares, in its order."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"]
                for metric in json.load(handle)[kind]}
