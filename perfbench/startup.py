"""Fresh-interpreter start-up samples spread evenly over a measured loop.

The host's speed drifts over tens of seconds, so start-up samples taken back
to back measure one moment of it.  ``StartupProbe`` instead takes its
samples between the operations of a loop, one whenever the loop has run
another ``seconds / count`` seconds, so their median covers the same stretch
of time as the operations' median.
"""

import subprocess
import time

TIMEOUT_S = 60


class StartupError(Exception):
    """A start-up sample exited with an error."""


class StartupProbe:
    def __init__(self, argv, env, cwd, count, seconds):
        self.argv, self.env, self.cwd = argv, env, cwd
        self.count, self.seconds = count, seconds
        self.walls = []

    def due(self, elapsed):
        """Take a sample if the loop, ``elapsed`` seconds in, is at or past
        the time of the next one."""
        if (len(self.walls) < self.count
                and elapsed >= len(self.walls) * self.seconds / self.count):
            self.sample()

    def finish(self):
        """Take the samples a short loop did not reach."""
        while len(self.walls) < self.count:
            self.sample()

    def sample(self):
        start = time.perf_counter()
        proc = subprocess.run(self.argv, env=self.env, cwd=self.cwd,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=TIMEOUT_S,
                              check=False)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            lines = proc.stderr.decode(errors="replace").splitlines()
            raise StartupError(f"{' '.join(self.argv[1:])} exited "
                               f"{proc.returncode}: "
                               f"{lines[-1] if lines else ''}")
        self.walls.append(wall)
        return wall

    @property
    def total(self):
        return sum(self.walls)
