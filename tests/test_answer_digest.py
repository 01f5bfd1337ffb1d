import importlib.util
import logging
import pathlib
import re
import subprocess
import sys

import numpy as np

from trafficpaths import optimizer

from conftest import balanced_clouds

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "answer_digest.py"
_spec = importlib.util.spec_from_file_location("answer_digest", SCRIPT)
answer_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(answer_digest)


def test_iteration_count_adds_up_the_batches_of_a_local_search(caplog):
    # the search's own DEBUG line totals its batches; the count must not add it again
    mu_minus, mu_plus = balanced_clouds(np.random.default_rng(4), 3, 4)
    count = answer_digest.IterationCount()
    log = logging.getLogger("trafficpaths.optimizer")
    log.addHandler(count)
    try:
        with caplog.at_level(logging.DEBUG, logger="trafficpaths.optimizer"):
            optimizer.local_search(mu_minus, mu_plus, 0.5)
    finally:
        log.removeHandler(count)
    (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("local search")]
    assert count.total == int(re.search(r"(\d+) Newton iterations", line).group(1)) > 0


def _digest(*flags) -> list:
    done = subprocess.run([sys.executable, str(SCRIPT), "--workload", "oracle6", "--seeds", "1",
                           *flags], capture_output=True, text=True, check=True)
    return done.stdout.splitlines()


def test_iterations_only_extend_the_digest_lines():
    plain, counted = _digest(), _digest("--iterations")
    assert len(plain) == len(counted) > 1
    for p, c in zip(plain, counted):
        head, _, n = c.rpartition(" iterations ")
        assert (c == p) if p.startswith("#") else (head == p and int(n) > 0)
