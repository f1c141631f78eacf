"""Old import path of the packed engine (the paper's Section 5 Monte-Carlo), kept only because ``perfbench/tracing.py`` imports it; the next change to the benchmark deletes it."""
from repro.sim.packed_frame_simulator import BatchedMeasurementRecord  # noqa: F401
from repro.sim.packed_frame_simulator import PackedLeakageFrameSimulator as BatchedLeakageFrameSimulator  # noqa: F401
