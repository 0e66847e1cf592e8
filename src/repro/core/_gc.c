/* GC stage of the mean-field Gaussian posterior in one pass: fold S
 * Monte-Carlo samples' weight gradients into the mu and rho gradients, or
 * write each sample's two contributions into (S, n) stacks.
 *
 * g, eps and p are (S, n) C-contiguous stacks (the data-fit gradient at the
 * sampled weight, its epsilon and the prior gradient before its scalar factor
 * prior_scale: p * prior_scale is the prior gradient, so a Gaussian prior
 * hands over the weights and 1 / sigma_c^2); sigma and sgrad are the
 * step's softplus(rho) and sigmoid(rho), computed by NumPy so the
 * transcendentals keep NumPy's bytes.  Per element and per sample this runs
 * exactly the NumPy body's IEEE operations with the operands in its order,
 * samples accumulated in sample order; built by repro.core.native with
 * -ffp-contract=off and no -ffast-math, so nothing is fused or reassociated
 * and the results are NumPy's bytes.
 * With stacks set, mu_grad and rho_grad are (S, n) stacks to overwrite.
 */
#include <stddef.h>

int posterior_gc(const double *g, const double *eps, const double *p,
                 const double *sigma, const double *sgrad, size_t samples,
                 size_t n, double kl, double prior_scale, int entropy, int stacks,
                 double *mu_grad, double *rho_grad)
{
    if (stacks) {  /* nothing to sum: one sample-major pass */
        for (size_t s = 0, at = 0; s < samples; s++)
            for (size_t i = 0; i < n; i++, at++) {
                double t = mu_grad[at] = g[at] + kl * (p[at] * prior_scale);
                double sg = eps[at] * t;
                rho_grad[at] = (entropy ? sg - kl / sigma[i] : sg) * sgrad[i];
            }
        return 0;
    }
    for (size_t i = 0; i < n; i++) {
        double mu = mu_grad[i], rho = rho_grad[i];
        for (size_t s = 0, at = i; s < samples; s++, at += n) {
            double t = g[at] + kl * (p[at] * prior_scale);
            double sg = eps[at] * t;
            if (entropy)
                sg = sg - kl / sigma[i];
            mu = mu + t;
            rho = rho + sg * sgrad[i];
        }
        mu_grad[i] = mu;
        rho_grad[i] = rho;
    }
    return 0;
}
