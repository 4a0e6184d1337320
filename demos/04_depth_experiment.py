"""A desk-scale depth experiment: vary L in the tied model.

Because the tied model's budget does not depend on depth, sweeping L at
fixed M isolates the effect of extra nonlinearities from the effect of
extra parameters. This runs the "layers-tied" experiment kind on the
synthetic color dataset and writes the same results CSV the command-line
runner produces.

Run:  python3 demos/04_depth_experiment.py    (about a minute)
"""

from pathlib import Path

from reconv import (ExperimentSpec, TrainConfig, make_synthetic,
                    results_csv, run_experiment)

train_data = make_synthetic(300, seed=0)
test_data = make_synthetic(100, seed=1)

spec = ExperimentSpec(
    kind="layers-tied",
    m_list=[8],
    l_list=[1, 2, 4],
    train=TrainConfig(epochs=5, batch_size=64, learning_rate=1e-4, eval_every=5),
)

print(f"training {len(spec.l_list)} tied cells at M=8 on "
      f"{len(train_data)} synthetic images")
result = run_experiment(spec, train_data, test_data)

print(f"{'L':>3} {'params':>8} {'train err':>10} {'test err':>9} {'seconds':>8}")
for cell in result.cells:
    print(f"{cell.layers:>3} {cell.param_count:>8} {cell.train_error:>10.3f} "
          f"{cell.test_error:>9.3f} {cell.seconds:>8.1f}")
print("every row shares the same parameter count; only depth changed")

out = Path("out")
out.mkdir(exist_ok=True)
(out / "depth_experiment.csv").write_text(results_csv(result, wall_time=True))
print(f"wrote {out / 'depth_experiment.csv'}")
