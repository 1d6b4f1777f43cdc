"""Smoke tests: every script in examples/ must run clean.

Each example executes as a real subprocess (the way users run them),
with REPRO_EXAMPLE_FAST=1 so parameter-heavy examples shrink their
workloads.  This keeps the documented entry points from silently
rotting as the stack underneath them evolves.
"""

import importlib.util
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES_DIR = os.path.join(REPO_ROOT, "examples")

EXAMPLES = sorted(
    name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py")
)


def test_every_example_is_covered():
    """If an example is added, it is smoke-tested automatically."""
    assert "quickstart.py" in EXAMPLES
    assert "campaign_sweep.py" in EXAMPLES
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs_clean(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_EXAMPLE_FAST"] = "1"  # tiny parameter overrides where honored
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, (
        f"{script} exited {result.returncode}\n"
        f"stdout:\n{result.stdout}\nstderr:\n{result.stderr}"
    )
    assert result.stdout.strip(), f"{script} produced no output"


def load_example(script: str):
    spec = importlib.util.spec_from_file_location(
        script[:-3], os.path.join(EXAMPLES_DIR, script)
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_campaign_sweep_exits_nonzero_when_runs_fail(monkeypatch):
    """An axis over a key the scenario spec rejects makes every run
    error; the example must report that through its exit status."""
    module = load_example("campaign_sweep.py")
    spec = module.build_spec(fast=True)
    spec.axes["medium_index"] = ["grid"]
    monkeypatch.setenv("REPRO_EXAMPLE_FAST", "1")
    monkeypatch.setattr(module, "build_spec", lambda fast=False: spec)
    assert module.main() == 1


def test_sharded_campaign_exits_nonzero_when_runs_fail(monkeypatch):
    module = load_example("sharded_campaign.py")
    real = module.campaign_spec

    def failing_spec(fast):
        data = real(fast)
        data["axes"]["medium_index"] = ["grid"]
        return data

    monkeypatch.setenv("REPRO_EXAMPLE_FAST", "1")
    monkeypatch.setattr(module, "campaign_spec", failing_spec)
    assert module.main() == 1
