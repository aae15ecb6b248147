"""The command line: the bytes and the digest of its artifact files, and
``verify-identities`` on a polytope that is not simple."""

import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from barydd import cli


def streamed(payload) -> bytes:
    """payload written as the artifacts were before, chunk by chunk."""
    fh = io.StringIO()
    json.dump(payload, fh, indent=2, sort_keys=True)
    fh.write("\n")
    return fh.getvalue().encode()


def write_inputs(tmp_path, dbp_62, poly_51, poly_53):
    paths = {}
    for name, obj in (("dbp62", dbp_62), ("poly51", poly_51), ("poly53", poly_53)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj.to_json()))
    return paths


class TestDigest:
    @pytest.mark.parametrize(
        "data", [b"", b"abc", bytes(range(256)) * 17, "∑ ≥ 0\n".encode()],
        ids=["empty", "abc", "all_bytes", "utf8"],
    )
    def test_equals_hashlib(self, data):
        assert cli._sha256_hex(data) == hashlib.sha256(data).hexdigest()

    def test_manifest_digest(self, tmp_path, dbp_62, poly_51, poly_53):
        paths = write_inputs(tmp_path, dbp_62, poly_51, poly_53)
        out = tmp_path / "c.json"
        assert cli.main(["dd", str(paths["poly51"]), "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "c.json.manifest.json").read_text())
        assert manifest["input_sha256"] == hashlib.sha256(paths["poly51"].read_bytes()).hexdigest()

    def test_no_openssl_loaded(self, tmp_path, dbp_62, poly_51, poly_53):
        # a fresh interpreter: the test runner itself may have loaded hashlib
        paths = write_inputs(tmp_path, dbp_62, poly_51, poly_53)
        jobs = [
            ["dd", str(paths["poly51"]), "--out", str(tmp_path / "c.json")],
            ["solve", str(paths["dbp62"]), "--method", "ddr", "--report", str(tmp_path / "r.json")],
            ["certify", str(paths["dbp62"]), "--out", str(tmp_path / "cert.json")],
        ]
        code = (
            "import contextlib, io, sys\n"
            "import barydd.cli as cli\n"
            f"for argv in {jobs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "print('_hashlib' in sys.modules, 'hashlib' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert (out.returncode, out.stderr) == (0, "")
        assert out.stdout == "False False\n"
        for name in ("c.json", "r.json", "cert.json"):
            assert (tmp_path / f"{name}.manifest.json").exists()


class TestArtifactBytes:
    """Each artifact is written in one write, with the bytes the streamed
    ``json.dump`` wrote."""

    @pytest.mark.parametrize(
        "argv, artifact",
        [
            (["dd", "poly51", "--out", "a.json"], "a.json"),
            (["dd", "poly53", "--prune", "--out", "a.json"], "a.json"),
            (["dd", "poly53", "--out", "a.json"], "a.json.manifest.json"),
            (["certify", "dbp62", "--out", "a.json"], "a.json"),
            (["solve", "dbp62", "--method", "ddr", "--report", "a.json"], "a.json"),
        ],
        ids=["poly51", "poly53_pruned", "manifest", "certificate", "report"],
    )
    def test_same_bytes_as_streamed(self, argv, artifact, tmp_path, dbp_62, poly_51, poly_53):
        paths = write_inputs(tmp_path, dbp_62, poly_51, poly_53)
        argv = [str(paths[a]) if a in paths else str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        assert cli.main(argv) == 0
        data = (tmp_path / artifact).read_bytes()
        assert data == streamed(json.loads(data))


class TestVerifyIdentities:
    # the square pyramid z >= 0, z <= x, z <= y, z <= 2 - x, z <= 2 - y:
    # four facets meet at the apex (1, 1, 1), where denominators of the
    # base-vertex coordinates vanish, so the vertex indicator there is a limit
    PYRAMID = {
        "variables": ["x", "y", "z"],
        "constraints": [
            {"coeffs": c, "sense": "<=", "rhs": r}
            for c, r in [(["0", "0", "-1"], "0"), (["-1", "0", "1"], "0"), (["0", "-1", "1"], "0"),
                         (["1", "0", "1"], "2"), (["0", "1", "1"], "2")]
        ],
    }

    @pytest.mark.parametrize("order", [[], ["--order", "2,3,4,5,1"], ["--order", "1,3,2,4,5"]],
                             ids=["default", "2,3,4,5,1", "1,3,2,4,5"])
    def test_square_pyramid_passes(self, order, tmp_path, capsys):
        inp = tmp_path / "pyramid.json"
        inp.write_text(json.dumps(self.PYRAMID))
        assert cli.main(["verify-identities", str(inp)] + order) == 0
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert err == "" and any(line.startswith("vertex indicator") for line in lines)
        assert all(line.endswith(" PASS") for line in lines), out
