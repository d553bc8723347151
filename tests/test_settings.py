"""Census of every settable value: config fields, solver and builder
parameters, and each CLI subcommand's option strings.

A change that adds, removes or renames a setting fails here until the
census below is updated, so the setting shows in that change's diff.
"""

import argparse
import dataclasses
import inspect

import pytest

from dualprox import cli, ppdg, problems, sppdg, vrgrad

UPDATE = (
    "the settable values changed: update the census in tests/test_settings.py "
    "and state in CHANGES.md how many settings were added and removed"
)

CONFIG_FIELDS = {
    ppdg.PpdgConfig: ["alpha", "max_iters", "tol_step", "preconditioner"],
    sppdg.SppdgConfig: ["alpha", "kappa_hat", "max_epochs", "tol_step", "seeds"],
}

PARAMETERS = {
    ppdg.solve: ["problem", "config", "trace_sink"],
    sppdg.solve_stochastic: ["problem", "estimator_kind", "config", "batch_size", "period"],
    vrgrad.make_estimator: ["kind", "n_components", "batch_size", "seed", "period"],
    problems.build_denoise: ["img", "lam", "c1", "c2", "boundary"],
    problems.build_fused_lasso: ["rows", "labels", "V", "lam", "p", "r", "normalize_rows"],
}

CLI_OPTIONS = {
    "denoise": ["-h", "--help", "--input", "--synthetic", "--sigma", "--seed", "--lam", "--c1",
                "--c2", "--boundary", "--alpha", "--max-iters", "--tol", "--out-dir"],
    "lasso": ["-h", "--help", "--data", "--synthetic", "--data-seed", "--estimator",
              "--seeds", "--batch", "--period", "--lam", "--p", "--r", "--threshold", "--v-file",
              "--normalize-rows", "--max-epochs", "--tol", "--alpha", "--kappa-hat", "--out-dir"],
    "prox-check": ["-h", "--help", "--reg", "--lam", "--c1", "--c2", "--p", "--r", "--gamma",
                   "--points", "--seed"],
    "spectra": ["-h", "--help", "--op", "--n", "--scale", "--height", "--width", "--boundary",
                "--csv"],
}


@pytest.mark.parametrize("config", list(CONFIG_FIELDS), ids=lambda c: c.__name__)
def test_config_fields(config):
    assert [f.name for f in dataclasses.fields(config)] == CONFIG_FIELDS[config], UPDATE


@pytest.mark.parametrize("fn", list(PARAMETERS), ids=lambda fn: fn.__qualname__)
def test_parameters(fn):
    assert list(inspect.signature(fn).parameters) == PARAMETERS[fn], UPDATE


def test_cli_options():
    parser = cli.build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: [s for action in sub._actions for s in action.option_strings]
        for name, sub in commands.choices.items()
    }
    assert options == CLI_OPTIONS, UPDATE
