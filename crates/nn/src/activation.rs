/// Activation functions for dense layers.
///
/// # Example
///
/// ```
/// use ppdl_nn::Activation;
///
/// assert_eq!(Activation::Relu.apply(-2.0), 0.0);
/// assert_eq!(Activation::Relu.apply(3.0), 3.0);
/// assert_eq!(Activation::Relu.derivative(3.0), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// `f(x) = x` — used on the output layer of a regressor.
    Identity,
    /// Rectified linear unit `max(0, x)`.
    Relu,
    /// Leaky ReLU with slope `alpha` for negative inputs.
    LeakyRelu(f64),
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// Applies the activation to a pre-activation value.
    #[must_use]
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu(alpha) => {
                if x >= 0.0 {
                    x
                } else {
                    alpha * x
                }
            }
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Derivative with respect to the *pre-activation* value.
    #[must_use]
    pub fn derivative(self, x: f64) -> f64 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu(alpha) => {
                if x >= 0.0 {
                    1.0
                } else {
                    alpha
                }
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Sigmoid => {
                let s = 1.0 / (1.0 + (-x).exp());
                s * (1.0 - s)
            }
        }
    }

    /// Short stable name, used by the persistence format.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Activation::Identity => "identity",
            Activation::Relu => "relu",
            Activation::LeakyRelu(_) => "leaky_relu",
            Activation::Tanh => "tanh",
            Activation::Sigmoid => "sigmoid",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Activation; 5] = [
        Activation::Identity,
        Activation::Relu,
        Activation::LeakyRelu(0.01),
        Activation::Tanh,
        Activation::Sigmoid,
    ];

    #[test]
    fn values_at_zero() {
        assert_eq!(Activation::Identity.apply(0.0), 0.0);
        assert_eq!(Activation::Relu.apply(0.0), 0.0);
        assert_eq!(Activation::Tanh.apply(0.0), 0.0);
        assert_eq!(Activation::Sigmoid.apply(0.0), 0.5);
    }

    #[test]
    fn leaky_slope() {
        let a = Activation::LeakyRelu(0.1);
        assert!((a.apply(-10.0) + 1.0).abs() < 1e-12);
        assert_eq!(a.derivative(-1.0), 0.1);
        assert_eq!(a.derivative(1.0), 1.0);
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let h = 1e-6;
        for act in ALL {
            for &x in &[-2.0, -0.5, 0.3, 1.7] {
                let fd = (act.apply(x + h) - act.apply(x - h)) / (2.0 * h);
                let an = act.derivative(x);
                assert!(
                    (fd - an).abs() < 1e-5,
                    "{}: fd {fd} vs analytic {an} at {x}",
                    act.name()
                );
            }
        }
    }

    #[test]
    fn monotone_nondecreasing() {
        for act in ALL {
            let mut prev = act.apply(-5.0);
            let mut x = -5.0;
            while x <= 5.0 {
                let v = act.apply(x);
                assert!(v >= prev - 1e-12, "{} not monotone at {x}", act.name());
                prev = v;
                x += 0.25;
            }
        }
    }

    #[test]
    fn sigmoid_bounded() {
        for &x in &[-50.0, -1.0, 0.0, 1.0, 50.0] {
            let s = Activation::Sigmoid.apply(x);
            assert!((0.0..=1.0).contains(&s));
        }
    }
}
