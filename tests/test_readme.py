"""README's examples stay valid: every command line parses, and the config
and model file examples load. Nothing here runs a command."""

import re
import shlex
from pathlib import Path

from softgp.cli import build_parser
from softgp.evolve import EvolutionConfig, parse_config
from softgp.sexpr import parse_model
from softgp.tree import validate

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def first_block(section):
    """The first fenced block under the "## <section>" heading."""
    body = README.split(f"\n## {section}\n", 1)[1]
    return re.search(r"^```\n(.*?)^```$", body, re.S | re.M).group(1)


def test_every_command_line_example_parses():
    lines = [ln for ln in first_block("Command line").splitlines() if ln.startswith("softgp ")]
    assert {shlex.split(ln)[1] for ln in lines} == {
        "synth", "train", "predict", "boundary", "fetch", "bench", "report"}
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert args.func is not None


def test_the_config_file_example_parses():
    cfg = parse_config(first_block("Config files"))
    assert cfg != EvolutionConfig()


def test_the_model_file_example_parses_and_validates():
    tree, n_features = parse_model(first_block("Model files"))
    assert validate(tree, n_features) == []
