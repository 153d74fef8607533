"""The fixed output suite of tools/check_outputs.py against the digests
committed in tools/outputs.sha256: campaign CSVs, CLI outputs and written
files stay byte-identical unless a change rewrites the manifest."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_output_suite_matches_the_committed_digests():
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "check_outputs.py"), "--check"],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-3000:]
    assert result.stdout.rstrip().endswith("all 88 outputs byte-identical")
