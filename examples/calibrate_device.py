#!/usr/bin/env python
"""Calibrate a power model from measurements, then deploy MobiCore on it.

The paper fits its analytic model on the deployment device (sections
4.1-4.2).  This example replays that workflow end to end:

1. run the section-3.3.1 characterisation sweep on a device (here the
   simulated Nexus 5 stands in for the phone + Monsoon rig);
2. fit Eq. (1)/(2) parameters from the samples by least squares;
3. build a MobiCore from the *fitted* parameters and verify it performs
   like one built from the ground-truth calibration.

Run:  python examples/calibrate_device.py
"""

from repro import (
    AndroidDefaultPolicy,
    MobiCorePolicy,
    Platform,
    Session,
    SimulationConfig,
    nexus5_spec,
    summarize,
)
from repro.analysis.fitting import collect_samples, fit_power_params
from repro.workloads import BusyLoopApp


def main() -> None:
    spec = nexus5_spec()

    print("Step 1: characterisation sweep (1 core, five OPPs x four loads) ...")
    samples = collect_samples(
        spec, config=SimulationConfig(duration_seconds=5.0, warmup_seconds=1.0)
    )
    print(f"  collected {len(samples)} (frequency, load, power) samples")

    print("\nStep 2: least-squares fit of the Eq. (1)/(2) model ...")
    fit = fit_power_params(samples)
    truth = spec.power_params
    print(f"  {'':22s}{'fitted':>10s}{'truth':>10s}")
    print(
        f"  {'Ceff (mW/GHz/V^2)':22s}{fit.params.ceff_mw_per_ghz_v2:10.1f}"
        f"{truth.ceff_mw_per_ghz_v2:10.1f}"
    )
    print(
        f"  {'static @ 0.9 V (mW)':22s}{fit.static_power_mw(0.9):10.1f}{47.0:10.1f}"
    )
    print(
        f"  {'static @ 1.2 V (mW)':22s}{fit.static_power_mw(1.2):10.1f}{120.0:10.1f}"
    )
    print(f"  fit RMSE: {fit.rmse_mw:.1f} mW over {fit.samples_used} samples")

    print("\nStep 3: deploy MobiCore with the fitted model ...")
    config = SimulationConfig(duration_seconds=30.0, seed=5, warmup_seconds=2.0)

    def measure(policy_factory):
        platform = Platform.from_spec(spec)
        return summarize(
            Session(
                platform, BusyLoopApp(30.0), policy_factory(platform), config,
                pin_uncore_max=False,
            ).run()
        )

    baseline = measure(lambda p: AndroidDefaultPolicy())
    fitted = measure(
        lambda p: MobiCorePolicy(
            power_params=fit.params, opp_table=spec.opp_table, num_cores=spec.num_cores
        )
    )
    exact = measure(MobiCorePolicy.for_platform)

    print(f"  android default      : {baseline.mean_power_mw:7.0f} mW")
    print(f"  mobicore (fitted)    : {fitted.mean_power_mw:7.0f} mW "
          f"({fitted.power_saving_percent(baseline):+.1f}%)")
    print(f"  mobicore (truth)     : {exact.mean_power_mw:7.0f} mW "
          f"({exact.power_saving_percent(baseline):+.1f}%)")
    print("\nThe fitted model matches the ground-truth deployment — the")
    print("calibration loop the paper ran on hardware, fully reproducible here.")


if __name__ == "__main__":
    main()
