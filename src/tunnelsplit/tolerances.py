"""Numerical contract bounds, pinned in one place.

Stationary quantities carry cascade roundoff only; packet quantities
compound k- and x-quadrature, so their bounds are looser.
"""

UNITARITY = 1e-10            # |T + R - 1| for any spec and energy
IDENTITY_STATIONARY = 1e-10  # sup_x |tr_solution + ref_solution - full|, from coefficients
SPLIT_NORM = 1e-10           # ||A_in|^2 - coefficient| on the split amplitudes
PARITY_MIDPOINT = 1e-8       # |ref_solution(x_c)| for the accepted root
PARITY_RELATIVE = 1e-7       # mirrored-sum bound relative to |ref_solution| at piece edges
OPACITY_MAX = 300.0          # sum of kappa*width beyond which float64 overflows

SPECTRUM_NORM = 1e-8         # packet spectrum normalization
PACKET_IDENTITY = 1e-8       # max |tr + ref - full| for synthesized packets
# Packet conservation. At every sample: the sum rule
# |T + R + 2 Re<tr|ref> - 1|, |R(t) - R(0)| and the cut balance
# |T(t) - T(0) - int_0^t Phi|, Phi being the flux into tr through the cut
# at x_c. |T + R - 1| and |T(t) - T(0)| only at launch and after the
# sub-packets separate: in between, tr exchanges probability through the cut.
NORM_DRIFT = 1e-4
OVERLAP_REAL = 1e-6          # |Re <tr|ref>| at launch and after separation
OVERLAP_FINAL_FRACTION = 0.05  # |<tr|ref>|(t_end) vs sqrt(T*R)
QUADRATURE_ERROR = 1e-4      # estimated x-quadrature error bound for norms
ZERO_NORM = 1e-12            # below this a component has no moments
CUT_FLUX_FINAL = 1e-3        # |j_ref(x_c-)| at the end of the canonical run

CN_NORM_DRIFT = 1e-10        # Crank-Nicolson unitarity per run
CN_WALL_MASS = 1e-6          # probability allowed within 5 points of a wall
ORACLE_L2 = 1e-3             # phase-aligned spectral-vs-CN distance

ZERO_FLUX = 1e-14            # sub-process weight below which dwell is undefined
OMEGA_FRACTION = 0.01        # max Larmor frequency as a fraction of E
