"""``python -m repro.core``: list the kernel registry and run its gates.

The command lives on the package, not on :mod:`repro.core.backend`: the
package imports that module, so running it as ``__main__`` would build a
second registry beside the one every other module dispatches through.
"""

from .backend import main

raise SystemExit(main())
