"""Principal angles between a subspace and controlled rotations of it.

The rotation generator moves every principal angle to a prescribed
target; the measured largest angle matches the request to a relative
accuracy of about 1e-5 even for targets as small as 1e-10, because
the sines are computed from the projected matrix rather than from
sqrt(1 - cos**2).
"""

import numpy as np

from qrlev.angles import principal_angles, sin_theta_max_projector
from qrlev.generate import random_orthonormal
from qrlev.perturb import rotation_perturbation

q = random_orthonormal(500, 10, 7)

print("target sin      measured (SVD)   measured (projector)   rel err")
for target in np.logspace(-10, -2, 5):
    q_tilde = rotation_perturbation(q, float(target), 11)
    ang = principal_angles(q, q_tilde)
    proj = sin_theta_max_projector(q, q_tilde)
    rel = abs(ang.sin_theta_max - target) / target
    print(f"{target:.1e}      {ang.sin_theta_max:.6e}     {proj:.6e}          {rel:.1e}")

# The naive formula loses half its digits on tiny angles:
q_tilde = rotation_perturbation(q, 1e-8, 13)
cos_max = principal_angles(q, q_tilde).cosines[-1]
naive = np.sqrt(1.0 - cos_max**2)
print(f"\nnaive sqrt(1-cos^2) at a 1e-8 angle: {naive:.3e} (exact: 1.000e-08)")
