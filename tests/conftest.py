"""Suite-wide configuration: prints one PASS/FAIL line per acceptance
criterion at the end of a run that included the acceptance module."""

_CRITERIA = {
    "test_criterion_01": "1  elliptical slice sampling reduces to its prior",
    "test_criterion_02": "2  conjugate Gaussian posterior recovery",
    "test_criterion_03": "3  discretized stationarity of the regional kernels",
    "test_criterion_04": "4  four-mode discovery vs single pseudo-prior baseline",
    "test_criterion_05": "5  stochastic-approximation gradient oracle",
    "test_criterion_06": "6  outlier robustness of the SA fitter",
    "test_criterion_07": "7  litter-model bimodality and rejection decay",
    "test_criterion_08": "8  logistic inference beats the stalled MH baseline",
    "test_criterion_09": "9  execution layout never changes traces",
    "test_criterion_10": "10 fitter and persistence unit suites",
}

_results: dict = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1].split("[")[0]
    if name not in _CRITERIA:
        return
    if report.when == "call":
        outcome = "PASS" if report.passed else "FAIL"
        prev = _results.get(name)
        if prev != "FAIL":
            _results[name] = outcome
    elif report.when == "setup" and report.failed:
        _results[name] = "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name in sorted(_CRITERIA):
        outcome = _results.get(name, "NOT RUN")
        terminalreporter.write_line(f"CRITERION {_CRITERIA[name]}: {outcome}")
