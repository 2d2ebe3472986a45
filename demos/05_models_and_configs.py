"""Model files, config files, and the matching CLI surface.

Everything the CLI does is a thin wrapper over these calls, so scripted
pipelines and shell pipelines produce byte-identical artifacts.
"""

import os
import tempfile

from softgp.data import gen_synthetic
from softgp.evolve import Algo, EvolutionConfig, fit, parse_config
from softgp.sexpr import format_model, load_model, save_model

# Configs are flat key = value text with EvolutionConfig field names.
cfg_text = """
# quick demo settings
population_size = 30
max_generation = 8
ext_prob = 0.3
"""
cfg = parse_config(cfg_text, EvolutionConfig(seed=5))
print("config:", cfg)

ds = gen_synthetic("moons", n=120, noise=0.1, seed=5)
cls = fit(ds, Algo.SGP, cfg)
print(f"\ntrain balanced accuracy {cls.train_fitness:.4f}")

# Model files are a one-line header plus the s-expression. repr() floats
# make the round trip exact, which is what keeps reruns byte-identical.
with tempfile.TemporaryDirectory(prefix="softgp-demo-") as workdir:
    path = os.path.join(workdir, "moons.sgp")
    save_model(path, cls.model, cls.n_features)
    print(f"\nsaved {path}:")
    with open(path) as fh:
        print(fh.read().rstrip())

    tree, n_features = load_model(path)
    assert format_model(tree, n_features) == format_model(cls.model, cls.n_features)
print("\nround trip ok")

print("\nCLI equivalents:")
print("  softgp synth --kind moons --n 120 --noise 0.1 --seed 5 --out moons.csv")
print("  softgp train --algo sgp --data moons.csv --config demo.cfg --model-out moons.sgp")
print("  softgp predict --model moons.sgp --data moons.csv --out labels.csv")
print("  softgp boundary --model moons.sgp --out boundary.csv")
print("  softgp bench synth:moons:120:0.1 --runs 3 --out bench_out")
