//! Direct CSR assembly of the free nodes' MNA system, in the supply-level
//! frame the solve works in.

use ppdl_netlist::{PowerGridNetwork, ShortMerge};
use ppdl_solver::CsrMatrix;

/// The free nodes' system `A δ = rhs` for their deviations
/// `δ = v − V_sup` from the supply level.
pub(crate) struct Stamped {
    /// The conductance matrix `A` of the free nodes.
    pub(crate) matrix: CsrMatrix,
    /// `Σ g·(v_pin − V_sup) − loads` per free node.
    pub(crate) rhs: Vec<f64>,
    /// `‖b‖` of the voltage-space system `A v = b`, where
    /// `b = Σ g·v_pin − loads`: the scale of the stopping rule.
    pub(crate) b_norm: f64,
}

/// Stamps every resistor and load of `network` at its merged nodes,
/// straight into CSR.
///
/// `fixed` holds each merged node's pinned voltage (`None` when free),
/// `unknown` each free merged node's row, and `m` the number of rows.
/// Each row's off-diagonals are filled in resistor order and its
/// diagonal summed in that order, then the row is sorted stably by
/// column; duplicates sum in that order and exact zeros are dropped.
/// That is `TripletMatrix::to_csr` of the usual four-entry stamps bit
/// for bit wherever `to_csr`'s sort keeps equal columns in insertion
/// order, which it does for every row of up to 20 raw entries.
///
/// The right-hand side is built from `v_pin − V_sup` directly: taking
/// `b − A·V_sup` instead cancels about six digits on a wire-bond grid.
pub(crate) fn stamp(
    network: &PowerGridNetwork,
    merge: &ShortMerge,
    fixed: &[Option<f64>],
    unknown: &[usize],
    m: usize,
    v_sup: f64,
) -> crate::Result<Stamped> {
    let free_pair = |r| {
        merge
            .resistor(r)
            .filter(|(a, b)| fixed[a.0].is_none() && fixed[b.0].is_none())
            .map(|(a, b)| (unknown[a.0], unknown[b.0]))
    };
    // Row i holds its off-diagonals in resistor order, then its diagonal.
    let mut start = vec![0usize; m + 1];
    for (ia, ib) in network.resistors().iter().filter_map(free_pair) {
        start[ia + 1] += 1;
        start[ib + 1] += 1;
    }
    for i in 0..m {
        start[i + 1] += start[i] + 1;
    }
    let mut entries = vec![(0usize, 0.0f64); start[m]];
    for i in 0..m {
        entries[start[i + 1] - 1].0 = i;
    }
    let diag = |i: usize| start[i + 1] - 1;

    let mut next = start.clone();
    let mut rhs = vec![0.0; m];
    let mut b = vec![0.0; m];
    for r in network.resistors() {
        let Some((a, bn)) = merge.resistor(r) else {
            continue;
        };
        let g = r.conductance();
        match (fixed[a.0], fixed[bn.0]) {
            (None, None) => {
                let (ia, ib) = (unknown[a.0], unknown[bn.0]);
                entries[diag(ia)].1 += g;
                entries[diag(ib)].1 += g;
                entries[next[ia]] = (ib, -g);
                next[ia] += 1;
                entries[next[ib]] = (ia, -g);
                next[ib] += 1;
            }
            (None, Some(v)) | (Some(v), None) => {
                let i = unknown[if fixed[a.0].is_none() { a.0 } else { bn.0 }];
                entries[diag(i)].1 += g;
                rhs[i] += g * (v - v_sup);
                b[i] += g * v;
            }
            (Some(_), Some(_)) => {}
        }
    }
    for l in network.current_loads() {
        let node = merge.node(l.node).0;
        if fixed[node].is_none() {
            rhs[unknown[node]] -= l.amps;
            b[unknown[node]] -= l.amps;
        }
    }
    let b_norm = ppdl_solver::vecops::norm2(&b);
    drop(b);

    let mut indptr = Vec::with_capacity(m + 1);
    let mut indices = Vec::with_capacity(entries.len());
    let mut data = Vec::with_capacity(entries.len());
    indptr.push(0);
    for w in start.windows(2) {
        let row = &mut entries[w[0]..w[1]];
        row.sort_by_key(|&(c, _)| c);
        let mut k = 0;
        while k < row.len() {
            let col = row[k].0;
            let mut sum = 0.0;
            while k < row.len() && row[k].0 == col {
                sum += row[k].1;
                k += 1;
            }
            if sum != 0.0 {
                indices.push(col);
                data.push(sum);
            }
        }
        indptr.push(indices.len());
    }
    drop(entries);
    let matrix = CsrMatrix::from_raw_parts(m, m, indptr, indices, data)?;
    Ok(Stamped {
        matrix,
        rhs,
        b_norm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdl_netlist::parse_spice;
    use ppdl_solver::TripletMatrix;

    /// The pinned level of each merged node and each free node's row,
    /// as `StaticAnalysis::solve` classifies them.
    fn classify(
        net: &PowerGridNetwork,
        merge: &ShortMerge,
    ) -> (Vec<Option<f64>>, Vec<usize>, usize) {
        let mut fixed = vec![None; merge.node_count()];
        for s in net.voltage_sources() {
            fixed[merge.node(s.node).0] = Some(s.volts);
        }
        for (i, &named) in merge.name_sources().iter().enumerate() {
            if net.node_name(named).is_ground() {
                fixed[i] = Some(0.0);
            }
        }
        let mut unknown = vec![usize::MAX; fixed.len()];
        let mut m = 0;
        for (i, f) in fixed.iter().enumerate() {
            if f.is_none() {
                unknown[i] = m;
                m += 1;
            }
        }
        (fixed, unknown, m)
    }

    /// The four-entry triplet stamps and `to_csr`, the assembly the
    /// direct one replaced.
    fn triplet_reference(
        net: &PowerGridNetwork,
        merge: &ShortMerge,
        fixed: &[Option<f64>],
        unknown: &[usize],
        m: usize,
    ) -> CsrMatrix {
        let mut t = TripletMatrix::new(m, m);
        for r in net.resistors() {
            let Some((a, b)) = merge.resistor(r) else {
                continue;
            };
            let g = r.conductance();
            match (fixed[a.0], fixed[b.0]) {
                (None, None) => t.stamp_conductance(unknown[a.0], unknown[b.0], g),
                (None, Some(_)) => t.stamp_grounded_conductance(unknown[a.0], g),
                (Some(_), None) => t.stamp_grounded_conductance(unknown[b.0], g),
                (Some(_), Some(_)) => {}
            }
        }
        t.to_csr()
    }

    #[test]
    fn direct_assembly_is_the_triplet_matrix_bit_for_bit() {
        // A short (Rv), three parallel resistors between one pair of
        // merged nodes (R2, R2b, R2c, one of them through the short),
        // a resistor to ground (Rg), a load on a free node, and
        // conductances whose sums round.
        let net = parse_spice(
            "R1 n1_0_0 n1_0_1 0.3\n\
             Rv n1_0_1 n2_0_1 0\n\
             R2 n1_0_1 n1_0_2 0.7\n\
             R2b n1_0_2 n1_0_1 1.1\n\
             R2c n2_0_1 n1_0_2 0.9\n\
             R3 n1_0_2 n1_0_3 0.13\n\
             R4 n1_0_3 n2_0_1 0.17\n\
             Rg n1_0_3 0 37.0\n\
             V0 n1_0_0 0 1.8\n\
             i0 n1_0_3 0 0.01\n\
             i1 n1_0_2 0 0.02\n",
        )
        .unwrap();
        let merge = net.short_merge();
        let (fixed, unknown, m) = classify(&net, &merge);
        let direct = stamp(&net, &merge, &fixed, &unknown, m, 1.8).unwrap();
        let reference = triplet_reference(&net, &merge, &fixed, &unknown, m);
        assert_eq!(direct.matrix.nnz(), reference.nnz());
        let bits = |a: &CsrMatrix, i| a.row(i).map(|(c, v)| (c, v.to_bits())).collect::<Vec<_>>();
        for i in 0..m {
            assert_eq!(bits(&direct.matrix, i), bits(&reference, i), "row {i}");
        }
        // The δ right-hand side is b − A·V_sup: each free node's pinned
        // conductance times (v_pin − V_sup), less its load.
        let av = direct.matrix.mul_vec(&vec![1.8; m]).unwrap();
        let b_norm = ppdl_solver::vecops::norm2(
            &direct
                .rhs
                .iter()
                .zip(&av)
                .map(|(r, a)| r + a)
                .collect::<Vec<_>>(),
        );
        assert!((b_norm - direct.b_norm).abs() <= 1e-12 * direct.b_norm);
    }
}
