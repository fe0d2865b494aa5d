#!/usr/bin/env python
"""Parameter study: what the analytical model is *for*.

The paper's closing argument: "the analysis helps a system designer
understand the impact of various system parameters in an easy way, without
running extensive simulations".  This example exercises that claim —
sweeping four design knobs analytically (hundreds of model evaluations in
seconds) and printing the design insights the sweeps reveal.

Run:
    python examples/parameter_study.py
"""

from repro import MarkovSpatialAnalysis, onr_scenario
from repro.experiments.tables import render_table


def sweep_rule() -> None:
    """How the (k, M) rule trades detection against false alarm immunity."""
    print("Sweep 1: the detection rule (k within M), N=150, V=10")
    rows = []
    for window in (10, 20, 30):
        for threshold in (3, 5, 7):
            scenario = onr_scenario(
                num_sensors=150, window=window, threshold=threshold
            )
            p = MarkovSpatialAnalysis(scenario, 3).detection_probability()
            rows.append([window, threshold, p])
    print(render_table(["M", "k", "P[detect]"], rows))
    print("-> longer windows recover the detection lost to larger k,\n"
          "   at the price of detection latency.\n")


def sweep_speed() -> None:
    """The counter-intuitive sparse-network effect: fast targets are easier."""
    print("Sweep 2: target speed, N=150, k=5/M=20")
    rows = []
    for speed in (2.0, 4.0, 6.0, 10.0, 15.0, 20.0):
        scenario = onr_scenario(num_sensors=150, speed=speed)
        p = MarkovSpatialAnalysis(scenario, 3).detection_probability()
        rows.append([speed, scenario.ms, p])
    print(render_table(["V (m/s)", "ms", "P[detect]"], rows))
    print("-> faster targets sweep more covered area per window, so sparse\n"
          "   networks detect them *more* reliably (Section 4's observation).\n")


def sweep_sensing_quality() -> None:
    """Cheap unreliable sensors vs few reliable ones."""
    print("Sweep 3: per-period detection probability Pd vs node count")
    rows = []
    for detect_prob in (0.5, 0.7, 0.9):
        row = [detect_prob]
        for num_sensors in (120, 180, 240):
            scenario = onr_scenario(
                num_sensors=num_sensors, detect_prob=detect_prob
            )
            row.append(
                MarkovSpatialAnalysis(scenario, 3).detection_probability()
            )
        rows.append(row)
    print(render_table(["Pd", "N=120", "N=180", "N=240"], rows))
    print("-> 180 sensors at Pd=0.9 beat 240 sensors at Pd=0.7: sensing\n"
          "   quality is worth more than raw count in this regime.\n")


def sweep_sensing_range() -> None:
    """Range is quadratic in coverage but linear along the track."""
    print("Sweep 4: sensing range, N=150, V=10")
    rows = []
    for sensing_range in (600.0, 800.0, 1000.0, 1400.0):
        scenario = onr_scenario(num_sensors=150, sensing_range=sensing_range)
        p = MarkovSpatialAnalysis(scenario, 3).detection_probability()
        coverage = scenario.dr_area / scenario.field_area
        rows.append([sensing_range, coverage, p])
    print(render_table(["Rs (m)", "DR / field", "P[detect]"], rows))
    print("-> doubling range more than doubles detection here; range is the\n"
          "   strongest knob, which is why undersea (long-range acoustic)\n"
          "   deployments can afford to be so sparse.")


def main() -> None:
    for study in (sweep_rule, sweep_speed, sweep_sensing_quality, sweep_sensing_range):
        study()


if __name__ == "__main__":
    main()
