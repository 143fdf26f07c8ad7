"""The CLI surface, read from the argparse actions rather than `--help` text
(whose layout varies across Python versions).  A change here is a change to
the documented command line."""

import argparse

from normcharts.cli import build_parser

REGIONS = [
    "vol_cortical_gm", "vol_subcortical_gm", "vol_white_matter",
    "vol_ventricles", "vol_cerebellum", "vol_tiv",
]
METHODS = ["mprage", "median"]
INPUT_MODES = ["impression", "full"]

# subcommand -> [(flag or positional dest, type, choices, default, required)]
SURFACE = {
    "ingest": [("--reports", None, None, None, True)],
    "label": [
        ("--reports", None, None, None, True),
        ("--annotations", None, None, None, False),
        ("--out", None, None, None, True),
    ],
    "split": [
        ("--reports", None, None, None, True),
        ("--labels", None, None, None, False),
        ("--seed", "int", None, 0, False),
        ("--out", None, None, None, True),
    ],
    "train": [
        ("--reports", None, None, None, True),
        ("--labels", None, None, None, True),
        ("--split", None, None, None, True),
        ("--out", None, None, None, True),
        ("--seed", "int", None, 0, False),
        ("--pos-weight", "float", None, 10.0, False),
        ("--learning-rate", "float", None, 0.5, False),
        ("--epochs", "int", None, 20, False),
        ("--balanced", None, None, False, False),
        ("--input-mode", None, INPUT_MODES, "full", False),
    ],
    "eval": [
        ("--model", None, None, None, True),
        ("--reports", None, None, None, True),
        ("--labels", None, None, None, True),
        ("--split", None, None, None, True),
        ("--subset", None, ["Train", "Val", "Test"], "Test", False),
        ("--input-mode", None, INPUT_MODES, "full", False),
        ("--out", None, None, None, True),
    ],
    "triage": [
        ("--reports", None, None, None, True),
        ("--mode", None, ["direct", "stepwise"], None, True),
        ("--fixture", None, None, None, False),
        ("--endpoint", None, None, None, False),
        ("--model-name", None, None, "default", False),
        ("--gold", None, None, None, False),
        ("--out", None, None, None, True),
    ],
    "qc": [
        ("--phenotypes", None, None, None, True),
        ("--out", None, None, None, True),
    ],
    "aggregate": [
        ("--phenotypes", None, None, None, True),
        ("--method", None, METHODS, "median", False),
        ("--out", None, None, None, True),
    ],
    "fit-growth": [
        ("--phenotypes", None, None, None, True),
        ("--region", None, REGIONS, None, True),
        ("--method", None, METHODS, "median", False),
        ("--ridge-lambda", "float", None, 1.0, False),
        ("--no-sigma-age", None, None, False, False),
        ("--fp1-only", None, None, False, False),
        ("--out", None, None, None, True),
    ],
    "centiles": [
        ("--model", None, None, None, True),
        ("--phenotypes", None, None, None, True),
        ("--method", None, METHODS, "median", False),
        ("--out", None, None, None, True),
    ],
    "curves": [
        ("--model", None, None, None, True),
        ("--sex", None, ["M", "F"], "F", False),
        ("--age-min", "float", None, 0.5, False),
        ("--age-max", "float", None, 19.0, False),
        ("--points", "int", None, 38, False),
        ("--out", None, None, None, True),
    ],
    "compare": [
        ("--a", None, None, None, True),
        ("--b", None, None, None, True),
    ],
    "run-experiment": [
        ("name", None, [
            "exp1_balanced", "exp2_weighted", "exp3_ood",
            "exp4_impression", "exp5_stepwise", "exp6_growthcharts",
        ], None, True),
        ("--config", None, None, None, False),
        ("--seed", "int", None, None, False),
        ("--out", None, None, None, False),
    ],
}


def _subparsers():
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def _surface(subparser):
    return [
        (
            "/".join(a.option_strings) or a.dest,
            getattr(a.type, "__name__", None),
            list(a.choices) if a.choices is not None else None,
            a.default,
            a.required,
        )
        for a in subparser._actions
        if not isinstance(a, argparse._HelpAction)
    ]


def test_subcommands_and_aliases():
    choices = _subparsers().choices
    assert sorted(choices) == sorted([*SURFACE, "plot-data"])
    assert choices["plot-data"] is choices["curves"]


def test_every_subcommand_keeps_its_flags():
    choices = _subparsers().choices
    assert {name: _surface(choices[name]) for name in SURFACE} == SURFACE
