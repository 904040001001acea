"""Write reference/identify.json: the zero sets the identify workload checks against.

    python3 benchmark/make_reference.py

Run it on the commit whose output is the reference; the identify workload
then requires every later commit to reproduce the zero count, kernel
dimensions, classifications and positions (to 1e-6 Hz) per protocol.
"""

import json
import sys
import tempfile
from pathlib import Path

from run import import_csemri, pin_blas_threads


def main():
    pin_blas_threads()
    import_csemri()
    from workloads import HZ_PER_PPM, PROTOCOLS, REFERENCE, call_cli

    reference = {}
    with tempfile.TemporaryDirectory(dir=REFERENCE.parent) as tmp:
        for name, protocol in PROTOCOLS.items():
            config = Path(tmp) / "acq.json"
            out = Path(tmp) / "out.json"
            config.write_text(json.dumps({**protocol, "hz_per_ppm": HZ_PER_PPM}))
            code, _, err = call_cli(["analyze", "--config", config, "--out", out])
            if code != 0:
                sys.exit(f"{name}: analyze failed with exit code {code}: {err}")
            report = json.loads(out.read_text())
            reference[name] = {
                "protocol": protocol,
                "w_period_hz": report["w_period_hz"],
                "zeros": [
                    {k: z[k] for k in ("eta_hz", "kernel_dim", "classification")}
                    for z in report["zeros"]
                ],
            }
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
