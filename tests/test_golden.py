"""Golden bytes: SHA-256 of the CLI's output on every corpus kernel.

Refactors of the engine, caches, trace or report layers must leave these
bytes unchanged; rewrite a digest only when a change to the model's output
is intended, and say why in the change.
"""

import hashlib
from dataclasses import replace

import pytest

from sensim.cli import main
from sensim.machine import dump_config, load_config

KERNEL_ARGS = {
    "portblock": [],
    "jacobi": ["--iters", "50"],
    "chain": ["--iters", "200"],
    "stream": ["--iters", "500"],
}

GOLDEN = {
    "chain": {
        "simulate-json":
            "df00582efbbf7fc67afb38c90e863bbb173b85199f872ac7de268ab1c619834a",
        "simulate-table":
            "da053cddf3baf5bb82b951e914194bdcd6779a0fee1fd2f186c10ba375a53bc8",
        "sensitivity":
            "3668c78cecaeb4b8b569be2964521f059ece5685d964e58250a4dc5c25db287b",
        "heatmap-csv":
            "25ac2bdd492202b2e81b6ee0f970b505ee6c6624f5ff88ec3ce6160af8738cee",
        "heatmap-svg":
            "72071d77c0a758c10373462c19f7cb680592157a329e8147e3fd8e6df441bdf5",
    },
    "jacobi": {
        "simulate-json":
            "a3455a84bda9c7c2888c760ab71e0fff0a337da6476e2c9fc37f5986ac55ebd5",
        "simulate-table":
            "ed632f4825fd25c49a83f5bf46c876e87589d50c8eb22edfc4d7c8a109699a07",
        "sensitivity":
            "18c7f1818a42b1a0a55485c766aeaa2d4d4ae26d41a8988a9f870e3aa5b023b1",
        "heatmap-csv":
            "b73788054b1775d855c9df1d06c4fc132a4364ad66300451d479d1bf9cb16d48",
        "heatmap-svg":
            "963373324985add04e5d6507d0d809e8931e15484d75d917f945d82c7e4cd949",
    },
    "portblock": {
        "simulate-json":
            "019e4ec9612d3b31a78ae3b4a144b8d791fca6c2191faa26641e0b89b21eee13",
        "simulate-table":
            "e88c2b9b4080765855bdf47f2f4db66ec34269bebfbb5a85c99c715db6e5ab06",
        "sensitivity":
            "04727def42b68cfeff1bc307fa787329a8a152350c590133425df5ec49f3eecb",
        "heatmap-csv":
            "a2775bea32a2bcbc75cd238b8cf0cd7c973d24e513bccf98ed27b41cac40c978",
        "heatmap-svg":
            "b706d74417412339db3b4131c90871b8f22d77961bc80da7ba482b69b3c3c129",
    },
    "stream": {
        "simulate-json":
            "da01b5ff07df2259dd66d2688de76fc5d22aab2acd03c706326ca50a3340f2ca",
        "simulate-table":
            "8ce10270741f22740c27b555dcafc0c463254f50340377e16d654dea976ddf88",
        "sensitivity":
            "2650f6876885d70f9d25ae9d572365caea833b9c56caff02cb9fbb3770002f7a",
        "heatmap-csv":
            "baf2181cdf8d3e2819aa530e599a4bcdb395fd6a2e99023b500fd1331be97b89",
        "heatmap-svg":
            "854f92f5bd0dd893491b6b5dbe827325e7895a5115b3fec5b0f41c8ad43e257e",
    },
}


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def cli_digests(name, tmp_path, capsys, edit=None):
    """Digests of every output on the kernel; `edit` may rewrite its machine first."""
    trace = str(tmp_path / f"{name}.trace")
    cfg = str(tmp_path / f"{name}.cfg")
    assert main(["gen-kernel", name, *KERNEL_ARGS[name], "--out", trace]) == 0
    capsys.readouterr()
    if edit is not None:
        with open(cfg, encoding="utf-8") as fh:
            config = edit(load_config(fh.read()))
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(dump_config(config))

    def stdout(*argv):
        assert main(list(argv)) == 0
        return _sha(capsys.readouterr().out)

    digests = {
        "simulate-json": stdout("simulate", trace, "--config", cfg,
                                "--report", "json", "--per-instruction"),
        "simulate-table": stdout("simulate", trace, "--config", cfg,
                                 "--report", "table", "--per-instruction"),
        "sensitivity": stdout("sensitivity", trace, "--config", cfg,
                              "--workers", "1"),
    }
    for fmt in ("csv", "svg"):
        heatmap = tmp_path / f"{name}.{fmt}"
        stdout("sensitivity", trace, "--config", cfg, "--workers", "1",
               "--heatmap", str(heatmap))
        digests[f"heatmap-{fmt}"] = _sha(heatmap.read_text(encoding="utf-8"))
    return digests


@pytest.mark.parametrize("name", sorted(KERNEL_ARGS))
def test_cli_output_bytes_are_pinned(name, tmp_path, capsys):
    assert cli_digests(name, tmp_path, capsys) == GOLDEN[name]


# core-to-L1 transfers are not modelled: the engine charges cache levels 1 to
# a miss's end, so the first level's gap is required but changes no output byte
@pytest.mark.parametrize("name", ["jacobi", "stream"])
def test_first_cache_level_gap_charges_nothing(name, tmp_path, capsys):
    def slow_first_level(config):
        first, *rest = config.cache_levels
        assert first.name == "L1" and first.gap == 1.0
        return replace(config, cache_levels=(replace(first, gap=12345.5), *rest))

    assert cli_digests(name, tmp_path, capsys, slow_first_level) == GOLDEN[name]
