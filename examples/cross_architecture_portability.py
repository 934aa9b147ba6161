"""Cross-architecture model portability (Section IV-F).

Three compute nodes with different CPUs and different sensor sets
(52/46/39 sensors) run the same applications.  Fixed-length CS signatures
make their feature sets compatible, so a *single* model classifies
applications on all three architectures — something the baselines cannot
do at all.  Also demonstrates shipping a trained CS model to another
system via JSON.

Run with::

    python examples/cross_architecture_portability.py
"""

import argparse
import tempfile
from pathlib import Path

from repro.core import CorrelationWiseSmoothing, CSModel
from repro.datasets.generators import generate_cross_architecture
from repro.datasets.recipes import recipe
from repro.experiments.crossarch import baseline_signature_lengths
from repro.experiments.reporting import print_table
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import execute


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--t", type=int, default=1600)
    parser.add_argument("--trees", type=int, default=50)
    args = parser.parse_args()

    # --- The merged-dataset experiment.
    print("running the Section IV-F protocol (CS-20 per node, merge, 5-fold CV)...")
    spec = get_scenario("crossarch").with_datasets(
        (recipe("cross-architecture", t=args.t),)
    ).with_evaluation(blocks=20, trees=args.trees)
    result = execute(spec).extras["result"]
    print()
    print_table(
        ("Model", "F1 measured", "F1 paper"),
        [("Random forest", round(result.rf_f1, 4), 0.995),
         ("MLP (2x100 ReLU)", round(result.mlp_f1, 4), 0.992)],
        title="Merged three-architecture application classification",
    )
    print(f"samples per architecture: {result.per_arch_counts}")

    # --- Why baselines cannot do this.
    lengths = baseline_signature_lengths(seed=0, t=600)
    print("\nTuncer feature lengths per architecture (incompatible!):")
    print_table(("Architecture", "Feature length"), sorted(lengths.items()))

    # --- Shipping a CS model between systems.
    segment = generate_cross_architecture(seed=0, t=800)
    comp = segment.components[0]
    cs = CorrelationWiseSmoothing(blocks=20)
    cs.fit(comp.matrix, sensor_names=list(comp.sensor_names))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "skylake-cs-model.json"
        cs.model.save(path)
        loaded = CSModel.load(path)
        print(f"\nshipped CS model: {path.name} "
              f"({path.stat().st_size} bytes, {loaded.n_sensors} sensors)")
        receiver = CorrelationWiseSmoothing(blocks=20).set_model(loaded)
        sig = receiver.transform(comp.matrix[:, :30])
        print(f"receiver computed a {sig.shape[0]}-block signature without "
              "retraining.")


if __name__ == "__main__":
    main()
