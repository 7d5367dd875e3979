"""Model of the UPMEM processing-in-memory system the paper evaluates.

The paper runs on a first-generation UPMEM server: "2,524 PIM cores
(running at 425 MHz) and 158 GB of PIM-enabled memory with a total
bandwidth of 2,145 GB/s" (Section 4.1). No UPMEM hardware is available
to this reproduction, so — per the substitution policy in DESIGN.md —
this subpackage implements a **mechanistic performance model** of that
system, with the architectural mechanisms the paper's findings rest on:

* each DPU is a fine-grained multithreaded in-order core: the 14-stage
  pipeline dispatches at most one instruction per cycle overall, and at
  most one instruction per tasklet every 11 cycles, so **11 or more
  tasklets are needed to saturate a DPU** (the paper's Observation 1,
  matching the PrIM characterization [38, 39] it cites);
* 32-bit native integer add/addc; **no 32-bit multiplier** —
  multiplication wider than 16 bits is a software shift-and-add loop
  (the mechanism behind the paper's Key Takeaway 2);
* each DPU owns a 64 MB MRAM bank reached through a DMA engine from a
  64 KB WRAM scratchpad;
* host↔DPU data moves over the memory bus at a few GB/s aggregate, far
  below the internal 2,145 GB/s.

Kernel *functionality* is not modelled but executed: the kernels in
:mod:`repro.pim.kernels` run real limb arithmetic from
:mod:`repro.mpint` and derive their cycle counts from the operations
actually performed.
"""
