"""R104 fixture: failure paths that complete without a FailureRecord when
``on_error="record"`` (2 findings).

The catches are deliberately *narrow* (SolverError / TimeoutError): a
generic broad-except check would stay silent — losing a narrow, expected
failure is exactly what only the interprocedural view flags.
"""


class FailureRecord:
    def __init__(self, stage, reason):
        self.stage = stage
        self.reason = reason


class SolverError(Exception):
    pass


def solve_batch(tasks, on_error="record"):
    results = []
    for task in tasks:
        try:
            results.append(task())
        except SolverError:
            results.append(None)
    return results


def solve_batch_timeout(tasks, on_error="record"):
    results = []
    for task in tasks:
        try:
            results.append(task())
        except TimeoutError:
            continue
    return results
