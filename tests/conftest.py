"""Shared pytest plumbing: collect acceptance-criterion result lines and
echo them after the run, where output capture no longer hides them; and
`dense_ring`, one dense ring block as the package builds it."""

from torus_qpt import ring_stack

ACCEPTANCE_LINES: list[str] = []


def record_criterion(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line)


def dense_ring(kind: str, lam: float, N: int, eta: float, phi: float):
    """The dense N x N ring block of one (lambda, eta), boundary bond
    included, in units of t, as ring_stack builds it."""
    return next(ring_stack(kind, [lam], N, [eta], phi))[0]


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
