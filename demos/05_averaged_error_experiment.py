"""The averaged worst-case error experiment, end to end.

For each sample size x, sum the worst |error term| over all moduli k up to
K(x) = x^(r/(r+1)) / (log x)^(A+r-1), then normalize by x / (log x)^A.
A bounded, non-increasing normalized sequence is the empirical signature
of the averaged square-root-cancellation the sweep is probing.
"""

from rfree import ExperimentConfig, rows_to_csv, run_experiment, write_plot

XS = (10**4, 10**5, 10**6)
R, A = 2, 1.0

config = ExperimentConfig(r=R, log_power=A, xs=XS)
rows = run_experiment(config)

print(rows_to_csv(rows))
print("normalized trend:")
for row in rows:
    bar = "#" * round(2000 * row.normalized)
    print(f"  x=1e{len(str(row.x)) - 1}: {row.normalized:.5f} {bar}")

write_plot(rows, "averaged_error_trend.svg")
print("\nwrote averaged_error_trend.svg")
