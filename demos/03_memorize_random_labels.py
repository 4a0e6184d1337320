"""Capacity sanity check: drive training error to zero on random labels.

32 random images get 32 random labels; there is nothing to generalize,
so reaching 0% training error is purely a test of model capacity and of
the optimizer actually descending. A tied model with 16 maps and 2
hidden layers memorizes the set in a few dozen epochs.

Run:  python3 demos/03_memorize_random_labels.py    (a few seconds)
"""

import numpy as np

from reconv import ArchConfig, Dataset, TrainConfig, train

rng = np.random.default_rng(0)
data = Dataset(rng.uniform(0, 1, (32, 32, 32, 3)), rng.integers(0, 10, 32))

arch = ArchConfig(feature_maps=16, layers=2, tied=True)
config = TrainConfig(epochs=40, batch_size=128)  # one 32-example batch per epoch
print(f"memorizing 32 random labels with a tied M={arch.feature_maps} "
      f"L={arch.layers} model ({config.epochs} epochs)")

result = train(arch, data, data, config, seed=0)

for record in result.records:
    if record.epoch % 5 == 0 or record.train_error == 0.0:
        bar = "#" * int(40 * (1 - record.train_error))
        print(f"epoch {record.epoch:>3d}  loss {record.train_loss:7.4f}  "
              f"train error {record.train_error:6.1%}  {bar}")
    if record.train_error == 0.0:
        print(f"memorized at epoch {record.epoch} "
              f"({record.epoch + 1} passes over 32 examples)")
        break
else:
    print("not memorized yet; raise epochs")
