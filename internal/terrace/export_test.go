package terrace

import "slices"

// Fires counts what Shape classes for the insertion of pending taxon x into
// the overlaid state, at any of its edges: the constraints whose accounting
// rule restructures another pending taxon, the distinct taxa they re-target,
// and whether one of them fires by activation (s == 1). Shape is Split
// exactly where it gives 1, 1 and false. The corpus ledger
// (TestRestructuringLedger) reads it.
func (o *Overlay) Fires(x int) (constraints, taxa int, activation bool) {
	tr := o.tr
	var retargeted []int32
	for _, c := range tr.byTaxon[x] {
		cs, inc := tr.constraints[c], int(o.inc[c])
		s := cs.sCount + inc
		if s == 0 || len(cs.pending)-inc < 2 {
			continue
		}
		fired := false
		for _, z := range cs.pending {
			if int(z) == x || !cs.restructures(s, cs.target[x], z) || o.booked[z>>6]&(1<<(z&63)) != 0 {
				continue
			}
			fired, activation = true, activation || s == 1
			if !slices.Contains(retargeted, z) {
				retargeted = append(retargeted, z)
			}
		}
		if fired {
			constraints++
		}
	}
	return constraints, len(retargeted), activation
}
