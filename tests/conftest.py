import os


def _blas_threads():
    # the stream digests hold at OpenBLAS's default thread count and not at
    # one thread (np.dot is threaded above 10000 elements), so a digest
    # failure is read against this line
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    return ("BLAS threads: " + " ".join(f"{n}={os.environ.get(n, 'unset')}" for n in names)
            + f" cpu_count={os.cpu_count()}")


def pytest_report_header(config):
    return _blas_threads()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # -q drops the header, so a failing quiet run repeats the line at its end
    if exitstatus and config.option.verbose < 0:
        terminalreporter.write_line(_blas_threads())
