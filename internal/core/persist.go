package core

import (
	"fmt"
	"io"

	"fairrank/internal/arrangement"
	"fairrank/internal/dataset"
	"fairrank/internal/fairness"
	"fairrank/internal/flatidx"
	"fairrank/internal/geom"
)

// Flat payload sections of an exact arrangement index: the hyperplanes,
// every region with its half-space sides and witness, and the query seed,
// which together determine Baseline's answers exactly. Per-region data is
// stored structure-of-arrays — a prefix-offset slab locates each region's
// sides, witnesses pack into one float64 slab — so loading reinterprets a
// handful of slabs instead of gob-decoding every region.
const (
	secMeta          uint32 = 1  // int64: m, #hyperplanes, #regions, #sides, HyperplaneCount, OracleCalls, QuerySeed
	secBox           uint32 = 2  // float64: box lo (m), box hi (m)
	secHPCoef        uint32 = 3  // float64: hyperplane coefficients, m per hyperplane
	secHPPair        uint32 = 4  // int64: hyperplane exchange pair I, J interleaved
	secSideOff       uint32 = 5  // int64: per-region prefix offsets into the side slabs (#regions+1)
	secSideH         uint32 = 6  // int64: side hyperplane indexes, flattened
	secSideS         uint32 = 7  // uint8: side signs (0 = Below, 1 = On, 2 = Above)
	secWitness       uint32 = 8  // float64: region witnesses, m per region
	secRegionFlags   uint32 = 9  // uint8: bit 0 = satisfactory
	secRegionVersion uint32 = 10 // int64: region witness versions
)

const regionFlagSatisfactory = 1 << 0

// sideToByte / sideFromByte map geom.Side (−1, 0, 1) onto the uint8 slab.
func sideToByte(s geom.Side) uint8 { return uint8(int8(s) + 1) }

func sideFromByte(b uint8) (geom.Side, bool) {
	if b > 2 {
		return 0, false
	}
	return geom.Side(int8(b) - 1), true
}

// WriteIndex serializes the index in the flat columnar format so the
// exponential offline arrangement build can be paid once and reused across
// processes.
func (idx *MDIndex) WriteIndex(w io.Writer) error {
	regions := idx.Arr.Regions()
	hps := idx.Arr.Hyperplanes
	m := len(idx.Arr.Box.Lo)

	nSides := 0
	for _, reg := range regions {
		if reg == nil {
			return fmt.Errorf("core: nil region in index")
		}
		nSides += len(reg.Sides)
	}

	box := make([]float64, 0, 2*m)
	box = append(append(box, idx.Arr.Box.Lo...), idx.Arr.Box.Hi...)
	hpCoef := make([]float64, 0, len(hps)*m)
	hpPair := make([]int64, 0, 2*len(hps))
	for _, h := range hps {
		if len(h.Coef) != m {
			return fmt.Errorf("core: hyperplane dimension %d, want %d", len(h.Coef), m)
		}
		hpCoef = append(hpCoef, h.Coef...)
		hpPair = append(hpPair, int64(h.I), int64(h.J))
	}
	sideOff := make([]int64, 1, len(regions)+1)
	sideH := make([]int64, 0, nSides)
	sideS := make([]uint8, 0, nSides)
	witness := make([]float64, 0, len(regions)*m)
	flags := make([]uint8, len(regions))
	versions := make([]int64, len(regions))
	for i, reg := range regions {
		if len(reg.Witness) != m {
			return fmt.Errorf("core: region %d witness dimension %d, want %d", i, len(reg.Witness), m)
		}
		for _, sh := range reg.Sides {
			sideH = append(sideH, int64(sh.H))
			sideS = append(sideS, sideToByte(sh.S))
		}
		sideOff = append(sideOff, int64(len(sideH)))
		witness = append(witness, reg.Witness...)
		if reg.Satisfactory {
			flags[i] |= regionFlagSatisfactory
		}
		versions[i] = int64(reg.Version)
	}

	fw := flatidx.NewWriter(flatidx.KindExact)
	fw.Int64s(secMeta, []int64{
		int64(m), int64(len(hps)), int64(len(regions)), int64(nSides),
		int64(idx.HyperplaneCount), int64(idx.OracleCalls), idx.querySeed,
	})
	fw.Float64s(secBox, box)
	fw.Float64s(secHPCoef, hpCoef)
	fw.Int64s(secHPPair, hpPair)
	fw.Int64s(secSideOff, sideOff)
	fw.Int64s(secSideH, sideH)
	fw.Uint8s(secSideS, sideS)
	fw.Float64s(secWitness, witness)
	fw.Uint8s(secRegionFlags, flags)
	fw.Int64s(secRegionVersion, versions)
	return fw.Flush(w)
}

// LoadIndex reconstructs a queryable exact index from WriteIndex output (the
// flat format). The dataset and oracle must be the ones the index was built
// for; Baseline on a loaded index returns byte-identical answers to the
// index that wrote it (both solve the per-region NLPs from the same
// persisted query seed). Region witnesses alias the decoded payload blob;
// the only per-element work is materializing the region structs and side
// references — integer moves, no reflection.
func LoadIndex(r io.Reader, ds *dataset.Dataset, oracle fairness.Oracle) (*MDIndex, error) {
	fr, err := flatidx.Read(r)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if fr.EngineKind() != flatidx.KindExact {
		return nil, flatidx.Corruptf("core: payload is for engine kind %d", fr.EngineKind())
	}
	meta, err := fr.Int64s(secMeta)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if len(meta) != 7 {
		return nil, flatidx.Corruptf("core: meta section has %d values, want 7", len(meta))
	}
	m, nHP, nReg, nSides := int(meta[0]), int(meta[1]), int(meta[2]), int(meta[3])
	if m <= 0 || nHP < 0 || nReg < 0 || nSides < 0 {
		return nil, flatidx.Corruptf("core: implausible meta %v", meta)
	}
	if want := ds.D() - 1; m != want {
		return nil, fmt.Errorf("core: index box dimension %d, dataset needs %d", m, want)
	}

	box, err := fr.Float64s(secBox)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	hpCoef, err := fr.Float64s(secHPCoef)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	hpPair, err := fr.Int64s(secHPPair)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	sideOff, err := fr.Int64s(secSideOff)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	sideH, err := fr.Int64s(secSideH)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	sideS, err := fr.Uint8s(secSideS)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	witness, err := fr.Float64s(secWitness)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	flags, err := fr.Uint8s(secRegionFlags)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	versions, err := fr.Int64s(secRegionVersion)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// Cross-section shape checks: every slab length must agree with the
	// meta counts before any of it is trusted.
	switch {
	case len(box) != 2*m:
		return nil, flatidx.Corruptf("core: box slab has %d values, want %d", len(box), 2*m)
	case len(hpCoef) != nHP*m:
		return nil, flatidx.Corruptf("core: hyperplane slab has %d values, want %d", len(hpCoef), nHP*m)
	case len(hpPair) != 2*nHP:
		return nil, flatidx.Corruptf("core: hyperplane pair slab has %d values, want %d", len(hpPair), 2*nHP)
	case len(sideOff) != nReg+1:
		return nil, flatidx.Corruptf("core: side offset slab has %d values, want %d", len(sideOff), nReg+1)
	case len(sideH) != nSides || len(sideS) != nSides:
		return nil, flatidx.Corruptf("core: side slabs have %d/%d values, want %d", len(sideH), len(sideS), nSides)
	case len(witness) != nReg*m:
		return nil, flatidx.Corruptf("core: witness slab has %d values, want %d", len(witness), nReg*m)
	case len(flags) != nReg || len(versions) != nReg:
		return nil, flatidx.Corruptf("core: region slabs have %d/%d values, want %d", len(flags), len(versions), nReg)
	}

	hps := make([]geom.Hyperplane, nHP)
	for i := range hps {
		hps[i] = geom.Hyperplane{
			Coef: geom.Vector(hpCoef[i*m : (i+1)*m : (i+1)*m]),
			I:    int(hpPair[2*i]),
			J:    int(hpPair[2*i+1]),
		}
	}

	regionArr := make([]arrangement.Region, nReg)
	regions := make([]*arrangement.Region, nReg)
	sides := make([]arrangement.SignedHP, nSides)
	var sat []*arrangement.Region
	if sideOff[0] != 0 || sideOff[nReg] != int64(nSides) {
		return nil, flatidx.Corruptf("core: side offsets span [%d, %d], want [0, %d]", sideOff[0], sideOff[nReg], nSides)
	}
	for i := 0; i < nSides; i++ {
		h := sideH[i]
		if h < 0 || h >= int64(nHP) {
			return nil, flatidx.Corruptf("core: side %d references hyperplane %d of %d", i, h, nHP)
		}
		s, ok := sideFromByte(sideS[i])
		if !ok {
			return nil, flatidx.Corruptf("core: side %d has sign byte %d", i, sideS[i])
		}
		sides[i] = arrangement.SignedHP{H: int(h), S: s}
	}
	for i := range regionArr {
		lo, hi := sideOff[i], sideOff[i+1]
		if lo > hi || hi > int64(nSides) {
			return nil, flatidx.Corruptf("core: region %d side range [%d, %d) out of order", i, lo, hi)
		}
		regionArr[i] = arrangement.Region{
			Sides:        sides[lo:hi:hi],
			Witness:      geom.Vector(witness[i*m : (i+1)*m : (i+1)*m]),
			Satisfactory: flags[i]&regionFlagSatisfactory != 0,
			Version:      int(versions[i]),
		}
		regions[i] = &regionArr[i]
		if regionArr[i].Satisfactory {
			sat = append(sat, regions[i])
		}
	}

	arr := arrangement.Reconstruct(geom.Box{
		Lo: geom.Vector(box[:m:m]),
		Hi: geom.Vector(box[m : 2*m : 2*m]),
	}, hps, regions)
	return &MDIndex{
		Arr:             arr,
		Oracle:          oracle,
		DS:              ds,
		OracleCalls:     int(meta[5]),
		HyperplaneCount: int(meta[4]),
		querySeed:       meta[6],
		Sat:             sat,
	}, nil
}
