"""Batch driver contract: schema gate, exit codes, artifact formats."""

import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from fractdim import cli
from fractdim.acceptance import _determinism_configs

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


CANTOR_IFS = {"ratios": [1 / 3, 1 / 3], "translations": [0.0, 2 / 3]}
UNIFORM2 = {"type": "bernoulli", "weights": [0.5, 0.5]}
MARKOV2 = {
    "type": "markov", "order": 2,
    "kernel": [[0.3, 0.7], [0.6, 0.4], [0.5, 0.5], [0.9, 0.1]],
}


def spectrum_config(**extra):
    cfg = {
        "schema": 1,
        "kind": "spectrum",
        "seed": 5,
        "ifs": CANTOR_IFS,
        "measure": {"type": "bernoulli", "weights": [0.25, 0.75]},
        "params": {"qs": [-2.0, -1.0, 0.0, 1.0, 2.0]},
        "assert": [
            {"quantity": "T_at_1", "value": 0.0, "tol": 1e-12},
            {"quantity": "similarity_dim", "value": math.log(2) / math.log(3), "tol": 1e-12},
        ],
    }
    cfg.update(extra)
    return cfg


def project_config(**params):
    return {
        "schema": 1, "kind": "project", "seed": 13,
        "ifs": {
            "ratios": [1 / 3] * 4,
            "translations": [[0.0, 0.0], [2 / 3, 0.0], [0.0, 2 / 3], [2 / 3, 2 / 3]],
        },
        "measure": {"type": "bernoulli", "weights": [0.25] * 4},
        "params": {"subspace_dim": 1, "directions": 4, "count": 20_000, **params},
    }


def dimension_config(**params):
    return {
        "schema": 1, "kind": "dimension", "seed": 3,
        "ifs": CANTOR_IFS, "measure": UNIFORM2,
        "params": {"count": 20_000, **params},
    }


def param_leaves(obj, path=()):
    """Key/index path of every scalar under a params object."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from param_leaves(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from param_leaves(value, path + (i,))
    else:
        yield path


MISTYPED = [
    (cfg_path, leaf)
    for cfg_path in CONFIGS
    for leaf in param_leaves(json.loads(cfg_path.read_text())["params"])
]


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def launch(tmp_path, cfg, *args):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    return cli.main(["run", "--config", str(path), "--out", str(out), *args]), out


_CAPPED_RUN = textwrap.dedent("""
    import resource, sys, time
    from fractdim import cli
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    cap = 2**31 if hard == resource.RLIM_INFINITY else min(2**31, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    start = time.perf_counter()
    code = cli.main(sys.argv[1:])
    print(code, time.perf_counter() - start)
""")


def launch_capped(tmp_path, cfg):
    """Run cfg in a child whose address space is capped at 2 GiB, so a size
    check that misses fails fast instead of filling the host's memory.
    Returns the exit code, the seconds cli.main took, stderr and the out dir.
    """
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _CAPPED_RUN, "run", "--config", str(path), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert "Traceback" not in done.stderr
    assert "Warning" not in done.stderr
    code, seconds = done.stdout.split()
    return int(code), float(seconds), done.stderr, out


class TestSchemaGate:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        code, _ = launch(tmp_path, spectrum_config(extra_knob=1))
        assert code == 2
        assert "unknown key 'extra_knob'" in capsys.readouterr().err

    def test_unsupported_schema_version(self, tmp_path):
        code, _ = launch(tmp_path, spectrum_config(schema=2))
        assert code == 2

    def test_missing_seed(self, tmp_path):
        cfg = spectrum_config()
        del cfg["seed"]
        code, _ = launch(tmp_path, cfg)
        assert code == 2

    def test_unknown_kind(self, tmp_path):
        code, _ = launch(tmp_path, spectrum_config(kind="fourier"))
        assert code == 2

    def test_unknown_param_key(self, tmp_path):
        cfg = spectrum_config()
        cfg["params"] = {"q_step": 0.5}
        code, _ = launch(tmp_path, cfg)
        assert code == 2

    def test_unknown_assertion_quantity(self, tmp_path, capsys):
        cfg = spectrum_config()
        cfg["assert"] = [{"quantity": "box", "value": 1.0, "tol": 0.1}]
        code, _ = launch(tmp_path, cfg)
        assert code == 2
        assert "not produced by this experiment" in capsys.readouterr().err

    def test_assertion_mode_exclusive(self, tmp_path):
        cfg = spectrum_config()
        cfg["assert"] = [{"quantity": "T_at_1", "value": 0.0, "tol": 1e-9, "min": -1.0}]
        code, _ = launch(tmp_path, cfg)
        assert code == 2

    @pytest.mark.parametrize(
        "check",
        [
            {"quantity": "T_at_1", "value": 0.0, "tol": math.inf},
            {"quantity": "T_at_1", "value": math.nan, "tol": 1e-9},
            {"quantity": "T_at_1", "min": -math.inf},
            {"quantity": "T_at_1", "max": math.inf},
        ],
    )
    def test_assertion_bounds_must_be_finite(self, tmp_path, capsys, check):
        cfg = spectrum_config()
        cfg["assert"] = [check]
        code, out = launch(tmp_path, cfg)
        assert code == 2
        assert "expected a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_spectrum_rejects_markov_weights(self, tmp_path):
        cfg = spectrum_config(
            measure={"type": "markov", "order": 1, "kernel": [[0.3, 0.7], [0.6, 0.4]]}
        )
        cfg["assert"] = []
        code, _ = launch(tmp_path, cfg)
        assert code == 2

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"schema": 1,')
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "line" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        code = cli.main(
            ["run", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_unknown_verify_suite(self, capsys):
        assert cli.main(["verify", "nonsense"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("tolerance", "abc"), ("tolerance", -0.1), ("basis", "xy"),
         ("basis", 5), ("basis", [[1.0, 0.0]]),
         ("max_pairs", "many"), ("max_pairs", 0)],
    )
    def test_project_pair_parameters(self, tmp_path, capsys, key, value):
        code, out = launch(tmp_path, project_config(**{key: value}))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"schema error: config.params.{key}:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "block",
        [{"correlation": {"levels": 8, "max_pairs": 0}},
         {"correlation": {"levels": 8, "max_pairs": "many"}},
         {"correlation": {"levels": "8"}},
         {"box": {"levels": 8, "r0": "half"}},
         {"energy": {"exponents": [0.5], "max_pairs": 0}},
         {"energy": {"exponents": [0.5], "max_pairs": 2.5}}],
    )
    def test_dimension_pair_parameters(self, tmp_path, capsys, block):
        code, out = launch(tmp_path, dimension_config(**block))
        assert code == 2
        assert capsys.readouterr().err.startswith("schema error: config.params.")
        assert not out.exists()

    def test_box_counting_takes_no_pair_budget(self, tmp_path, capsys):
        # box counting draws no pairs, so a pair budget there is a typo
        code, out = launch(tmp_path, dimension_config(box={"levels": 8, "max_pairs": 1}))
        assert code == 2
        assert "config.params.box: unknown key 'max_pairs'" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("exponents", [0.5, [[0.5, 0.9]]])
    def test_energy_exponents_must_be_a_list(self, tmp_path, capsys, exponents):
        code, out = launch(tmp_path, dimension_config(energy={"exponents": exponents}))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error: config.params.energy.exponents:")
        assert not out.exists()

    @pytest.mark.parametrize("alphas", [0.5, [[0.5]]])
    def test_holder_alphas_must_be_a_list(self, tmp_path, capsys, alphas):
        cfg = {
            "schema": 1, "kind": "ede", "seed": 3, "ifs": CANTOR_IFS,
            "params": {
                "words": [[0, 1] * 15], "depth_min": 1, "depth_max": 4,
                "epsilon": 0.1, "holder": {"alphas": alphas, "pair_samples": 10},
            },
        }
        code, out = launch(tmp_path, cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error: config.params.holder.alphas:")
        assert not out.exists()


    @pytest.mark.parametrize(
        "kind, key, value, error",
        [("transversality", "region_low", "mistyped", ": unknown key 'region_low'"),
         ("transversality", "region_high", "mistyped", ": unknown key 'region_high'"),
         ("ede", "tolerance", "mistyped", ".tolerance"),
         ("ede", "words", 5, ".words"),
         ("ede", "words", [], ".words"),
         ("ede", "words", [[0, 1], "mistyped"], ".words"),
         ("ede", "samples", 0, ".samples"),
         ("spectrum", "coarse", {"count": 1000, "scale": -1.0}, ".coarse"),
         ("transversality", "low", [[None], [0.0]],
          ".low: expected a numeric array, got null")],
        ids=["transversality-region_low-mistyped", "transversality-region_high-mistyped",
             "ede-tolerance-mistyped", "ede-words-5", "ede-words-value4",
             "ede-words-value5", "ede-samples-0", "spectrum-coarse-value7",
             "transversality-low-null"],
    )
    def test_fields_outside_the_shipped_configs(
        self, tmp_path, capsys, kind, key, value, error
    ):
        # fields that no file in configs/ sets, and counts or scales out of
        # range; the translation family's region keys are gone, so any value
        # of theirs is an unknown key; numpy would read a null as NaN
        base = {
            "transversality": {
                "low": [[0.0], [0.0]], "high": [[1.0], [1.0]],
                "word_a": [0] * 30, "word_b": [1] * 30,
                "r0": 0.5, "levels": 5, "samples": 1000,
            },
            "ede": {"words": [[0, 1] * 15], "depth_min": 1, "depth_max": 4, "epsilon": 0.1},
            "spectrum": {"qs": [0.0, 1.0]},
        }[kind]
        cfg = {"schema": 1, "kind": kind, "seed": 3, "ifs": CANTOR_IFS,
               "measure": UNIFORM2, "params": {**base, key: value}}
        if key == "samples":
            del cfg["params"]["words"]
        code, out = launch(tmp_path, cfg)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"schema error: config.params{error}")
        assert not out.exists()

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_schema_version_must_be_the_integer_one(self, tmp_path, capsys, version):
        code, out = launch(tmp_path, spectrum_config(schema=version))
        assert code == 2
        assert capsys.readouterr().err.startswith("schema error: config.schema:")
        assert not out.exists()

    @pytest.mark.parametrize("orders", [[5, 4, 3, 2, 1], [1, 2, 2, 3]])
    def test_approx_orders_strictly_increasing(self, tmp_path, capsys, orders):
        cfg = {
            "schema": 1, "kind": "approx", "seed": 1,
            "measure": {"type": "markov", "order": 1, "kernel": [[0.3, 0.7], [0.6, 0.4]]},
            "params": {"orders": orders},
        }
        code, out = launch(tmp_path, cfg)
        assert code == 2
        assert capsys.readouterr().err.startswith("schema error: config.params.orders:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "cfg_name, change, field",
        [
            ("cantor_separation", {"words": [[1.5, 0.2] * 20]}, "words[0]"),
            ("transversality_family", {"word_a": [0.9] * 40}, "word_a"),
            ("transversality_family", {"word_b": [True] * 40}, "word_b"),
            ("markov_approximation", {"orders": [1.5, 2.5, 3.9]}, "orders"),
        ],
        ids=["ede-words", "word_a", "word_b-bool", "orders"],
    )
    def test_symbols_and_orders_must_be_integers(
        self, tmp_path, capsys, cfg_name, change, field
    ):
        # each of these once truncated to integers and ran
        cfg = json.loads((ROOT / "configs" / f"{cfg_name}.json").read_text())
        if "words" in change:
            del cfg["params"]["samples"]
        cfg["params"].update(change)
        code, out = launch(tmp_path, cfg)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"schema error: config.params.{field}: entry 0 ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("length", [-5, 0])
    def test_ede_word_length_is_a_count(self, tmp_path, capsys, length):
        # -5 reached numpy as a negative array shape, 0 a too-short word
        cfg = json.loads((ROOT / "configs" / "cantor_separation.json").read_text())
        cfg["params"]["word_length"] = length
        code, out = launch(tmp_path, cfg)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("schema error: config.params.word_length:")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, keys, value, field",
        [
            ("cantor_dimension", ("params", "correlation", "r0"), 10**400,
             "config.params.correlation.r0"),
            ("cantor_spectrum", ("assert", 0, "value"), -(10**400),
             "config.assert[0].value"),
            ("cantor_spectrum", ("params", "qs"), [0.0, 10**400], "config.params.qs"),
        ],
        ids=["number-r0", "number-assert-value", "array-qs"],
    )
    def test_integer_beyond_float_range(self, tmp_path, capsys, name, keys, value, field):
        # json writes these as 401-digit integer literals
        cfg = json.loads((ROOT / "configs" / f"{name}.json").read_text())
        block = cfg
        for key in keys[:-1]:
            block = block[key]
        block[keys[-1]] = value
        code, out = launch(tmp_path, cfg)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"schema error: {field}: number out of float range")
        assert "Traceback" not in err
        assert not out.exists()

    def test_ede_holder_requires_measure(self, tmp_path, capsys):
        # words need no measure, but the Holder check samples from one
        cfg = {
            "schema": 1, "kind": "ede", "seed": 3, "ifs": CANTOR_IFS,
            "params": {
                "words": [[0, 1] * 15], "depth_min": 1, "depth_max": 4,
                "epsilon": 0.1, "holder": {"alphas": [0.5], "pair_samples": 10},
            },
        }
        code, out = launch(tmp_path, cfg)
        assert code == 2
        assert "requires a measure block" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "cfg_path, leaf", MISTYPED,
    ids=[f"{p.stem}-{'.'.join(map(str, leaf))}" for p, leaf in MISTYPED],
)
def test_mistyped_param_is_schema_error(tmp_path, capsys, cfg_path, leaf):
    cfg = json.loads(cfg_path.read_text())
    parent = cfg["params"]
    for key in leaf[:-1]:
        parent = parent[key]
    parent[leaf[-1]] = "mistyped"
    code, out = launch(tmp_path, cfg)
    err = capsys.readouterr().err
    # an array element's error names the array field that holds it
    field = ".".join(itertools.takewhile(lambda key: isinstance(key, str), leaf))
    assert code == 2
    assert err.startswith(f"schema error: config.params.{field}:")
    assert "Traceback" not in err
    assert not out.exists()


class TestExitCodes:
    def test_precondition_failure_is_exit_3(self, tmp_path, capsys):
        cfg = spectrum_config(
            ifs={"ratios": [1.2, 0.3], "translations": [0.0, 0.5]}
        )
        code, _ = launch(tmp_path, cfg)
        assert code == 3
        assert "(0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"kernel": [[0.2, 0.8], [0.5, 0.5], [0.9, 0.1]]}, "is not (m**2, m)"),
            ({"order": 0}, "order must be >= 1"),
            ({"kernel": [0.5, 0.5]}, "is not (m**2, m)"),
            (
                {"kernel": [[math.nan, 0.8], [0.5, 0.5], [0.9, 0.1], [0.4, 0.6]]},
                "kernel entries must be finite and non-negative",
            ),
            ({"order": 10**12}, "markov kernel needs 2**1000000000000 nodes"),
            ({"kernel": [[1e300, 0.5]] * 4}, "kernel rows must sum to 1"),
        ],
        ids=["three-rows-at-order-2", "order-0", "one-d-kernel", "nan-entry",
             "huge-order", "unnormalized-rows"],
    )
    def test_malformed_markov_kernel_is_exit_3(self, tmp_path, change, message):
        # rejected by the shape, entry and row checks, before any solve; the run
        # has its address space capped, so forming m**order fails fast
        cfg = json.loads((ROOT / "configs" / "markov_approximation.json").read_text())
        cfg["measure"].update(change)
        code, seconds, err, out = launch_capped(tmp_path, cfg)
        assert seconds < 1.0
        assert code == 3
        assert err.startswith("precondition violated:")
        assert message in err
        assert not out.exists()

    def test_huge_approx_order_is_exit_3(self, tmp_path, capsys):
        cfg = json.loads((ROOT / "configs" / "markov_approximation.json").read_text())
        cfg["params"]["orders"] = [1, 2**70]
        code, out = launch(tmp_path, cfg)
        err = capsys.readouterr().err
        assert code == 3
        assert "marginal table needs" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [("check_depth", 10**12, "Gibbs ratio table needs 2**1000000000000 nodes"),
         ("depth", 2**40, "potential table needs 2**1099511627776 nodes"),
         ("depth", 15, "transfer matrix needs 2**28 nodes")],
    )
    def test_huge_gibbs_depth_is_exit_3(self, tmp_path, capsys, key, value, message):
        # refused before m**depth is formed or a table is allocated
        cfg = json.loads((ROOT / "configs" / "gibbs_bounds.json").read_text())
        cfg["params"][key] = value
        if value == 15:
            # a valid 2**15-entry potential, whose dense transfer matrix
            # (2**14 states squared) is what the budget refuses
            cfg["params"]["table"] = [-0.5 - 0.25 * (i % 3) for i in range(2**15)]
        start = time.perf_counter()
        code, out = launch(tmp_path, cfg)
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("precondition violated:")
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "keys, value, message",
        [
            (("epsilon",), math.nan, "epsilon must be finite and nonnegative"),
            (("holder", "alphas"), [math.nan, 0.5], "Holder exponents must lie"),
            (("samples",), 10**12, "EDE word sample needs 40000000000000 nodes"),
            (("holder", "pair_samples"), 10**12, "Holder base sample needs"),
            (("depth_min",), 30, "depth range is empty"),
            (("epsilon",), 1e12, "witness constant inf is not finite"),
        ],
        ids=["nan-epsilon", "nan-alpha", "huge-samples", "huge-pair-samples",
             "empty-depth-range", "huge-epsilon"],
    )
    @pytest.mark.filterwarnings("error")
    def test_bad_separation_param_is_exit_3(self, tmp_path, capsys, keys, value, message):
        # rejected before any artifact is written, and with no numpy warning
        cfg = json.loads((ROOT / "configs" / "cantor_separation.json").read_text())
        block = cfg["params"]
        for key in keys[:-1]:
            block = block[key]
        block[keys[-1]] = value
        code, out = launch(tmp_path, cfg)
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("precondition violated:")
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, keys, value, message",
        [
            ("cantor_dimension", ("params", "correlation", "levels"), 10**12,
             "finest radius r0 * 2^-1000000000000 underflows to 0"),
            ("cantor_dimension", ("params", "box", "levels"), 10**12,
             "finest radius r0 * 2^-1000000000000 underflows to 0"),
            ("transversality_family", ("params", "levels"), 10**12,
             "finest radius r0 * 2^-1000000000000 underflows to 0"),
            ("cantor_spectrum", ("params", "coarse", "delta"), math.inf,
             "delta must be positive and finite"),
            ("cantor_spectrum", ("ifs", "translations"), 0,
             "translations must be a vector or an (m, n) array"),
            ("transversality_family", ("params", "low", 0, 0), math.nan,
             "offset box bounds must be finite"),
            ("transversality_family", ("params", "high", 0, 0), math.inf,
             "offset box bounds must be finite"),
            ("cantor_dimension", ("params", "energy", "exponents"), [math.inf],
             "energy exponent must be finite and nonnegative"),
            ("cantor_dimension", ("params", "energy", "exponents"), [400.0],
             "the 400.0-energy of the sampled pairs overflows float64"),
            ("cantor_dimension", ("ifs", "translations", 0), math.nan,
             "translations and orthogonal parts must be finite"),
            ("cantor_spectrum", ("ifs", "translations", 0), 1e300,
             "bounding ball radius inf: the maps overflow the float range"),
            ("cantor_separation", ("ifs", "translations"), [0.0, 0.0],
             "the attractor is one point (enclosure radius 0)"),
            ("marstrand_projection", ("ifs", "rotations"), [math.inf, 0.0, 0.0, 0.0],
             "rotation angles must be finite"),
        ],
        ids=["correlation-levels", "box-levels", "transversality-levels",
             "infinite-delta", "scalar-translations", "nan-offset-low",
             "infinite-offset-high", "infinite-energy-exponent",
             "overflowing-energy", "nan-translation", "overflowing-radius",
             "one-point-attractor", "infinite-rotation"],
    )
    @pytest.mark.filterwarnings("error")
    def test_out_of_range_leaf_is_exit_3(self, tmp_path, capsys, name, keys, value, message):
        # refused with a precondition, not a numpy allocation, index or
        # division error, and with no numpy warning
        cfg = json.loads((ROOT / "configs" / f"{name}.json").read_text())
        block = cfg
        for key in keys[:-1]:
            block = block[key]
        block[keys[-1]] = value
        code, out = launch(tmp_path, cfg)
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("precondition violated:")
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("delta", [1e-13, 1e-320])
    def test_tiny_coarse_delta_is_exit_3(self, tmp_path, capsys, delta):
        # 1e-13 would ask numpy for a 309 TiB bin array, and at 1e-320 the
        # bin count overflows to inf
        cfg = json.loads((ROOT / "configs" / "cantor_spectrum.json").read_text())
        cfg["params"]["coarse"]["delta"] = delta
        start = time.perf_counter()
        code, out = launch(tmp_path, cfg)
        assert time.perf_counter() - start < 10.0
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("precondition violated: coarse spectrum bins needs")
        assert "Traceback" not in err
        assert not out.exists()

    def test_rotations_on_the_line_name_the_plane(self, tmp_path, capsys):
        # two maps on the line, not one map with a planar translation
        ifs = {**CANTOR_IFS, "rotations": [0.0, 0.5]}
        code, out = launch(tmp_path, spectrum_config(ifs=ifs))
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("precondition violated:")
        assert "only make sense in the plane" in err
        assert not out.exists()

    @pytest.mark.parametrize("index", [2, 5])
    def test_failing_direction_is_named_by_index(self, tmp_path, capsys, index):
        # the attractor is 1.5e-5 tall: its shadow on the y-axis spans too
        # few scales above the truncation floor for a fit; the directions
        # before it, in its block of four or the block before, fit first
        basis = [[[1.0, 0.0]], [[0.6, 0.8]], [[0.8, 0.6]]] * 2
        basis[index] = [[0.0, 1.0]]
        cfg = project_config(directions=6, count=5_000, max_pairs=20_000, basis=basis)
        cfg["ifs"] = {"ratios": [1 / 3, 1 / 3], "translations": [[0.0, 0.0], [2 / 3, 1e-5]]}
        cfg["measure"] = UNIFORM2
        code, out = launch(tmp_path, cfg)
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"precondition violated: direction {index}: fit window")
        assert "Traceback" not in err
        assert not out.exists()

    def test_huge_ede_depth_is_exit_3(self, tmp_path):
        # the depth range is checked against the word before it is listed; the
        # run has its address space capped, so listing it fails fast instead
        # of filling memory
        cfg = json.loads((ROOT / "configs" / "cantor_separation.json").read_text())
        cfg["params"]["depth_max"] = 10**12
        code, seconds, err, out = launch_capped(tmp_path, cfg)
        assert code == 3
        assert seconds < 1.0
        assert err.startswith("precondition violated:")
        assert "word has 40 symbols; deepest requested depth is 1000000000000" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, keys, message",
        [
            ("cantor_dimension", ("params", "count"),
             "a cloud of 1000000000000 points in R^1 cannot be allocated"),
            ("marstrand_projection", ("params", "count"),
             "a cloud of 1000000000000 points in R^2 cannot be allocated"),
            ("cantor_spectrum", ("params", "coarse", "count"),
             "a cloud of 1000000000000 points in R^1 cannot be allocated"),
            ("transversality_family", ("params", "samples"),
             "transversality parameter samples needs 1000000000000 nodes"),
        ],
        ids=["dimension", "project", "spectrum-coarse", "transversality-samples"],
    )
    def test_huge_point_count_is_exit_3(self, tmp_path, config, keys, message):
        # the cloud is allocated once, before any chunk is sampled, so an
        # unallocatable count exits 3 instead of sampling chunk after chunk;
        # parameter samples meet the budget before their chunks are listed
        cfg = json.loads((ROOT / "configs" / f"{config}.json").read_text())
        node = cfg
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = 10**12
        code, seconds, err, out = launch_capped(tmp_path, cfg)
        assert code == 3
        assert seconds < 1.0
        assert err.startswith("precondition violated:")
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "cfg",
        [
            project_config(count=50_000, max_pairs=10**12),
            dimension_config(
                count=50_000, correlation={"r0": 0.5, "levels": 10, "max_pairs": 10**12}
            ),
            dimension_config(count=50_000, energy={"exponents": [0.5], "max_pairs": 10**12}),
        ],
        ids=["project", "correlation", "energy"],
    )
    def test_huge_pair_sample_is_exit_3(self, tmp_path, cfg):
        # the pair sample is allocated once, before any stratum is drawn, so
        # an unallocatable max_pairs exits 3 instead of filling memory
        code, seconds, err, out = launch_capped(tmp_path, cfg)
        assert code == 3
        assert seconds < 1.0
        assert err.startswith("precondition violated:")
        assert "a sample of 2499950000 pairs cannot be allocated" in err
        assert not out.exists()

    @pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan], ids=["zero", "negative", "nan"])
    def test_bad_sample_tol_is_exit_3(self, tmp_path, capsys, tol):
        # refused before the cloud is sampled, as natural_projection refuses it
        code, out = launch(tmp_path, dimension_config(sample_tol=tol))
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("precondition violated: tolerance must be positive")
        assert "Traceback" not in err
        assert not out.exists()

    def test_huge_direction_count_is_exit_3(self, tmp_path):
        # the direction count meets the budget before the cloud or any
        # direction is sampled; unchecked, the run would draw directions one
        # by one for hours, so it runs in a child process with a timeout
        cfg = json.loads((ROOT / "configs" / "marstrand_projection.json").read_text())
        cfg["params"]["directions"] = 10**12
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "fractdim.cli", "run", "--config", str(path),
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert "Traceback" not in done.stderr
        assert done.returncode == 3
        assert done.stderr.startswith("precondition violated:")
        assert "Marstrand directions needs 1000000000000" in done.stderr
        assert not out.exists()

    def test_failed_assertion_is_exit_1(self, tmp_path, capsys):
        cfg = spectrum_config()
        cfg["assert"] = [{"quantity": "T_at_1", "value": 1.0, "tol": 1e-6}]
        code, out = launch(tmp_path, cfg)
        assert code == 1
        assert "FAIL" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is False

    def test_passing_run_is_exit_0(self, tmp_path, capsys):
        code, out = launch(tmp_path, spectrum_config())
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.count("pass") == 2
        assert (out / "structure.csv").exists()


def test_cli_import_leaves_scipy_unloaded():
    """The runtime is numpy-only: importing the CLI loads no scipy module."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = (
        "import sys, fractdim.cli; "
        "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"


class TestArtifacts:
    def test_csv_dialect(self, tmp_path):
        _, out = launch(tmp_path, spectrum_config())
        raw = (out / "structure.csv").read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        lines = raw.decode().splitlines()
        assert lines[0] == "q,T,alpha,f,endpoint"

    def test_csv_floats_round_trip(self, tmp_path):
        _, out = launch(tmp_path, spectrum_config())
        summary = json.loads((out / "summary.json").read_text())
        rows = (out / "structure.csv").read_text().splitlines()[1:]
        by_q = {r.split(",")[0]: r.split(",") for r in rows}
        assert float(by_q["1"][1]) == summary["quantities"]["T_at_1"]
        assert float(by_q["0"][1]) == summary["quantities"]["T_at_0"]

    def test_manifest_records_run(self, tmp_path):
        cfg = spectrum_config()
        _, out = launch(tmp_path, cfg)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == cfg["seed"]
        assert manifest["seed_overridden"] is False
        assert manifest["workers"] == 1
        assert manifest["wall_seconds"] >= 0
        assert set(manifest["artifacts"]) == {"structure.csv"}
        assert set(manifest["versions"]) == {"python", "numpy", "fractdim"}

    def test_seed_override_recorded(self, tmp_path):
        code, out = launch(tmp_path, spectrum_config(), "--seed-override", "99")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 99
        assert manifest["config"]["seed"] == 99
        assert manifest["seed_overridden"] is True


    def test_rerun_writes_fresh_files(self, tmp_path):
        cfg = dimension_config(box={"r0": 0.5, "levels": 6})
        _, out = launch(tmp_path, cfg)
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        kept = tmp_path / "kept.json"
        os.link(out / "summary.json", kept)
        _, again = launch(tmp_path, cfg)
        assert again == out
        for name in ("box.csv", "summary.json"):
            assert (out / name).read_bytes() == first[name]
        # the old file is left to its other link, not rewritten in place
        assert not os.path.samefile(out / "summary.json", kept)
        assert kept.read_bytes() == first["summary.json"]
        manifest = strict_json((out / "manifest.json").read_text())
        assert manifest["artifacts"] == ["box.csv"]


class TestRunners:
    def test_dimension_workers_byte_identical(self, tmp_path):
        cfg = {
            "schema": 1, "kind": "dimension", "seed": 11,
            "ifs": CANTOR_IFS, "measure": UNIFORM2,
            "params": {
                "count": 20_000,
                "correlation": {"r0": 0.5, "levels": 6},
                "box": {"r0": 0.5, "levels": 6},
                "energy": {"exponents": [0.5]},
            },
        }
        # no shipped config samples a Markov measure: these runs draw their
        # cloud (in three chunks), their words and their Holder base words
        # from an order-2 chain
        markov = {**cfg, "measure": MARKOV2}
        markov["params"] = {**cfg["params"], "count": 140_000}
        ede = {
            "schema": 1, "kind": "ede", "seed": 11, "ifs": CANTOR_IFS, "measure": MARKOV2,
            "params": {
                "samples": 20, "word_length": 40, "depth_min": 1, "depth_max": 12,
                "epsilon": 0.1, "holder": {"alphas": [0.5, 0.9], "pair_samples": 20},
            },
        }
        runs = [(cfg, (1, 3)), (markov, (1, 2)), (ede, (1, 2))]
        for i, (run_cfg, workers) in enumerate(runs):
            path = tmp_path / f"run{i}.json"
            path.write_text(json.dumps(run_cfg))
            csvs = []
            for w in workers:
                out = tmp_path / f"run{i}-w{w}"
                assert cli.main(
                    ["run", "--config", str(path), "--out", str(out), "--workers", str(w)]
                ) == 0
                csvs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
            assert len(csvs[0]) == (3 if run_cfg["kind"] == "dimension" else 2)
            assert csvs[0] == csvs[1]

    def test_ede_verdict_table(self, tmp_path):
        cfg = {
            "schema": 1, "kind": "ede", "seed": 3,
            "ifs": CANTOR_IFS,
            "params": {
                "words": [[0, 1] * 15, [1] * 30],
                "depth_min": 1, "depth_max": 8, "epsilon": 0.1,
            },
        }
        code, out = launch(tmp_path, cfg)
        assert code == 0
        rows = (out / "verdicts.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 8
        summary = json.loads((out / "summary.json").read_text())
        assert summary["quantities"]["all_passed"] == 1.0

    def test_project_direction_table(self, tmp_path):
        code, out = launch(tmp_path, project_config())
        assert code == 0
        rows = (out / "directions.csv").read_text().splitlines()
        assert len(rows) == 1 + 4
        summary = json.loads((out / "summary.json").read_text())
        assert summary["quantities"]["predicted"] == 1.0

    def test_rotations_match_their_orthogonal_matrices(self, tmp_path):
        angles = [0.0, 0.5, 2.0, -1.25]
        matrices = [[[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]] for a in angles]
        csvs = []
        for key, value in (("rotations", angles), ("orthogonal", matrices)):
            cfg = project_config()
            cfg["ifs"] = {**cfg["ifs"], key: value}
            (tmp_path / key).mkdir()
            code, out = launch(tmp_path / key, cfg)
            assert code == 0
            csvs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
        assert csvs[0] and csvs[0] == csvs[1]

    def test_transversality_decay_table(self, tmp_path):
        cfg = {
            "schema": 1, "kind": "transversality", "seed": 7,
            "ifs": CANTOR_IFS,
            "params": {
                "low": [[0.0], [0.0]], "high": [[1.0], [1.0]],
                "word_a": [0] * 30, "word_b": [1] * 30,
                "r0": 0.5, "levels": 5, "samples": 50_000,
            },
            "assert": [{"quantity": "constraint_satisfied", "value": 1.0, "tol": 0.0}],
        }
        code, out = launch(tmp_path, cfg)
        assert code == 0
        rows = (out / "decay.csv").read_text().splitlines()
        assert len(rows) == 1 + 6

    def test_approx_identity_and_monotone(self, tmp_path):
        cfg = {
            "schema": 1, "kind": "approx", "seed": 1,
            "measure": {
                "type": "markov", "order": 2,
                "kernel": [[0.2, 0.8], [0.5, 0.5], [0.9, 0.1], [0.4, 0.6]],
            },
            "params": {"orders": [1, 2, 3, 4]},
            "assert": [
                {"quantity": "max_identity_residual", "value": 0.0, "tol": 1e-10},
                {"quantity": "monotone", "value": 1.0, "tol": 0.0},
                {"quantity": "relative_entropy_last", "min": 0.0, "max": 1e-12},
            ],
        }
        code, out = launch(tmp_path, cfg)
        assert code == 0
        rows = (out / "approx.csv").read_text().splitlines()
        assert len(rows) == 1 + 4

    def test_gibbs_depth_one_is_bernoulli(self, tmp_path):
        p = np.array([0.3, 0.7])
        cfg = {
            "schema": 1, "kind": "gibbs", "seed": 0,
            "params": {
                "depth": 1, "alphabet": 2,
                "table": list(np.log(p)), "check_depth": 6,
            },
            "assert": [
                {"quantity": "pressure", "value": 0.0, "tol": 1e-10},
                {"quantity": "bernoulli_residual", "value": 0.0, "tol": 1e-10},
                {"quantity": "bounds_hold", "value": 1.0, "tol": 0.0},
            ],
        }
        code, out = launch(tmp_path, cfg)
        assert code == 0
        rows = (out / "bounds.csv").read_text().splitlines()
        assert len(rows) == 1 + 6


    def test_gibbs_bounds_skip_forbidden_words(self, tmp_path):
        # golden-mean shift: the word 11 is forbidden
        cfg = {
            "schema": 1, "kind": "gibbs", "seed": 0,
            "params": {"depth": 2, "alphabet": 2, "table": [0.0, 0.0, 0.0, -math.inf]},
            "assert": [{"quantity": "bounds_hold", "value": 1.0, "tol": 0.0}],
        }
        code, out = launch(tmp_path, cfg)
        assert code == 0
        quantities = strict_json((out / "summary.json").read_text())["quantities"]
        assert quantities["max_ratio"] == pytest.approx(1.17, abs=0.01)
        assert quantities["max_ratio"] <= quantities["constant"]

    def test_overlap_writes_strict_json(self, tmp_path):
        # an exact overlap: maps 2 and 3 coincide, so the separation
        # exponent of the word 1212... is infinite
        cfg = {
            "schema": 1, "kind": "ede", "seed": 3,
            "ifs": {"ratios": [0.5, 0.5, 0.5], "translations": [[0.0], [0.5], [0.5]]},
            "params": {
                "words": [[1, 2] * 15], "depth_min": 1, "depth_max": 6,
                "epsilon": 0.1, "tolerance": 1e-3,
            },
            "assert": [{"quantity": "max_worst_exponent", "min": 0.0}],
        }
        code, out = launch(tmp_path, cfg)
        assert code == 0
        summary = strict_json((out / "summary.json").read_text())
        assert summary["quantities"]["max_worst_exponent"] is None
        assert summary["quantities"]["any_overlap"] == 1.0
        assert summary["nonfinite"] == ["max_worst_exponent"]
        assert summary["assertions"][0]["got"] is None
        manifest = strict_json((out / "manifest.json").read_text())
        assert "nonfinite" not in manifest

    def test_manifest_nulls_nonfinite_config_values(self, tmp_path):
        cfg = {
            "schema": 1, "kind": "gibbs", "seed": 0,
            "params": {"depth": 2, "alphabet": 2, "table": [0.0, 0.0, 0.0, -math.inf]},
        }
        code, out = launch(tmp_path, cfg)
        assert code == 0
        manifest = strict_json((out / "manifest.json").read_text())
        assert manifest["config"]["params"]["table"] == [0.0, 0.0, 0.0, None]
        assert manifest["nonfinite"] == ["config.params.table[3]"]
        assert "nonfinite" not in strict_json((out / "summary.json").read_text())


class TestKindTable:
    @pytest.mark.parametrize(
        "cfg",
        [json.loads(p.read_text()) for p in CONFIGS]
        + list(_determinism_configs(0.02).values()),
        ids=[p.stem for p in CONFIGS] + [f"determinism-{k}" for k in _determinism_configs(0.02)],
    )
    def test_runner_produces_declared_quantities(self, tmp_path, cfg):
        code, out = launch(tmp_path, cfg, "--workers", "2")
        assert code == 0
        produced = json.loads((out / "summary.json").read_text())["quantities"]
        assert set(produced) == cli.quantity_names(cfg["kind"], cfg["params"])


class TestFormatValue:
    def test_flags_and_integers(self):
        assert cli.format_value(True) == "1"
        assert cli.format_value(False) == "0"
        assert cli.format_value(7) == "7"

    def test_floats_survive_round_trip(self):
        for x in (math.pi, 1 / 3, 0.1, 3.0**-12, -1.2345678901234567e-300):
            assert float(cli.format_value(x)) == x

    def test_integral_floats_stay_compact(self):
        assert cli.format_value(1.0) == "1"
        assert cli.format_value(-4.0) == "-4"
