#!/usr/bin/env python3
"""Contention lab: watch the eliminator protect a training job (Sec. V-D).

One node, one contention-sensitive NLP trainer, one HEAT bandwidth hog.
The script runs the scene twice — eliminator off, then on — and prints a
timeline of node bandwidth pressure, the trainer's GPU utilization, and
the hog's MBA throttle level.

Run:  python examples/contention_lab.py
"""

from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig, NodeConfig
from repro.core import CodaConfig, CodaScheduler, EliminatorConfig
from repro.experiments.runner import SimulationRunner
from repro.metrics.report import render_table
from repro.perfmodel.stages import TrainSetup
from repro.workload.heat import heat_job
from repro.workload.job import GpuJob


def run_scene(eliminator_enabled: bool):
    cluster = Cluster(
        ClusterConfig(
            node_groups=((1, NodeConfig(gpus=4, mem_bandwidth_gbps=110.0)),)
        )
    )
    scheduler = CodaScheduler(
        CodaConfig(eliminator=EliminatorConfig(enabled=eliminator_enabled))
    )
    runner = SimulationRunner(cluster, scheduler, sample_interval_s=600.0)
    runner.submit_at(
        0.0,
        GpuJob(
            job_id="trainer",
            tenant_id=1,
            submit_time=0.0,
            model_name="bat",
            setup=TrainSetup(1, 1),
            requested_cpus=5,
            total_iterations=600,
        ),
    )
    runner.submit_at(
        120.0, heat_job("heat", 120.0, threads=12, duration_s=1e6, tenant_id=18)
    )

    node = cluster.nodes[0]
    timeline = []
    for checkpoint in (60, 150, 240, 600, 1800, 3600):
        runner.engine.run(until=checkpoint)
        trainer_running = node.holds("trainer")
        timeline.append(
            (
                f"{checkpoint}s",
                f"{node.bandwidth.pressure:.2f}",
                f"{runner.gpu_job_utilization('trainer'):.3f}"
                if trainer_running
                else "done",
                f"{node.mba.throttle_level('heat'):.1f}"
                if node.holds("heat")
                else "-",
            )
        )
    runner.engine.run(until=48 * 3600.0)
    finish = runner.collector.records["trainer"].processing_time
    return timeline, finish


def main() -> None:
    for enabled in (False, True):
        label = "ON" if enabled else "OFF"
        timeline, finish = run_scene(enabled)
        print(
            render_table(
                ["time", "node bw pressure", "trainer util", "heat throttle"],
                timeline,
                title=f"\nEliminator {label}:",
            )
        )
        print(f"Trainer total processing time: {finish:.0f} s")


if __name__ == "__main__":
    main()
