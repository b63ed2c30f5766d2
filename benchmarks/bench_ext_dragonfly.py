"""Extension: dragonfly group-pair hot-spot and network-noise scenarios."""

from repro.experiments.config import FULL
from repro.experiments.scenarios import ext_dragonfly_hotspot, ext_dragonfly_noise

from conftest import run_scenario


def bench_ext_dragonfly_hotspot(benchmark):
    run_scenario(benchmark, ext_dragonfly_hotspot, FULL)


def bench_ext_dragonfly_noise(benchmark):
    run_scenario(benchmark, ext_dragonfly_noise, FULL)
