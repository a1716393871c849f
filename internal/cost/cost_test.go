package cost

import (
	"math"
	"testing"
)

func TestTransferTimesOrdering(t *testing.T) {
	links := TypicalLinks()
	prev := math.Inf(1)
	for _, l := range links {
		h := l.HoursPerTB()
		if h <= 0 || h >= prev {
			t.Errorf("%s: %v h/TB not strictly improving", l.Name, h)
		}
		prev = h
	}
	// Fig 1a's headline: slow links take days-to-weeks per TB.
	if h := links[0].HoursPerTB(); h < 24*7 {
		t.Errorf("T1 transfer %v h/TB — should be on the order of weeks", h)
	}
	// 10 GbE moves a TB in well under an hour.
	if h := links[len(links)-1].HoursPerTB(); h > 1 {
		t.Errorf("10 GbE transfer %v h/TB — should be minutes", h)
	}
}

func TestAWSEgressTiers(t *testing.T) {
	// Fig 1b: ~$120/TB at 10 TB declining toward ~$60/TB at 500 TB.
	at10 := float64(AWSEgressPerTB(10))
	if math.Abs(at10-120) > 2 {
		t.Errorf("10 TB egress = $%.0f/TB, want ~120", at10)
	}
	at500 := float64(AWSEgressPerTB(500))
	if at500 < 55 || at500 > 70 {
		t.Errorf("500 TB egress = $%.0f/TB, want ~60", at500)
	}
	// Paper text: "over $60 for every 1 TB".
	for _, tb := range []float64{10, 50, 150, 250, 500} {
		if v := float64(AWSEgressPerTB(tb)); v < 58 {
			t.Errorf("egress at %v TB = $%.0f/TB below the quoted $60 floor", tb, v)
		}
	}
	if AWSEgress(0) != 0 || AWSEgressPerTB(0) != 0 {
		t.Error("zero volume should cost zero")
	}
}

func TestAWSEgressMonotone(t *testing.T) {
	prev := 0.0
	for tb := 1.0; tb <= 600; tb += 7 {
		v := float64(AWSEgress(tb))
		if v <= prev {
			t.Fatalf("egress not increasing at %v TB", tb)
		}
		prev = v
	}
}

func TestITTCOOrderingAtFiveYears(t *testing.T) {
	a := Default()
	sa := a.ITTCO(SatelliteOnly, 5)
	cell := a.ITTCO(CellularOnly, 5)
	inSA := a.ITTCO(InSituPlusSatellite, 5)
	inCell := a.ITTCO(InSituPlusCellular, 5)

	// Fig 3a ordering: SA ≫ 4G > InSitu+SA > InSitu+4G.
	if !(sa > cell && cell > inCell) {
		t.Errorf("ordering violated: SA=%v 4G=%v InSitu+4G=%v", sa, cell, inCell)
	}
	if inSA >= sa {
		t.Errorf("in-situ + satellite (%v) not below satellite-only (%v)", inSA, sa)
	}
	// §2.1: in-situ saves >55% with satellite backup, ~95% with cellular.
	if saving := 1 - float64(inSA)/float64(sa); saving < 0.5 {
		t.Errorf("satellite-backup saving = %.0f%%, want >50%%", saving*100)
	}
	if saving := 1 - float64(inCell)/float64(cell); saving < 0.85 {
		t.Errorf("cellular saving = %.0f%%, want ~95%%", saving*100)
	}
	// §2.1: "save over a million dollars in 5 years".
	if float64(sa-inSA) < 1_000_000 {
		t.Errorf("5-year satellite saving $%.0f below the quoted $1M", float64(sa-inSA))
	}
}

func TestITTCOMonotoneInYears(t *testing.T) {
	a := Default()
	for _, o := range ITOptions() {
		prev := Dollars(0)
		for y := 1.0; y <= 5; y++ {
			v := a.ITTCO(o, y)
			if v <= prev {
				t.Errorf("%v: TCO not increasing at year %v", o, y)
			}
			prev = v
		}
	}
}

func TestEnergyTCOShape(t *testing.T) {
	a := Default()
	// Fig 3b: fuel cell is the expensive option throughout; diesel starts
	// cheap but fuel costs accumulate; solar+battery wins long-run.
	for _, y := range []float64{3, 5, 7, 9, 11} {
		solar := a.EnergyTCO(SolarBattery, y)
		fc := a.EnergyTCO(FuelCell, y)
		if fc <= solar {
			t.Errorf("year %v: fuel cell (%v) not above solar (%v)", y, fc, solar)
		}
	}
	// By 11 years diesel's fuel bill dominates the solar system's capital.
	if d, s := a.EnergyTCO(Diesel, 11), a.EnergyTCO(SolarBattery, 11); d <= s {
		t.Errorf("11-year diesel (%v) not above solar (%v)", d, s)
	}
	// Diesel has the lowest CapEx at year 1.
	if d, s := a.EnergyTCO(Diesel, 1), a.EnergyTCO(SolarBattery, 1); d >= s {
		t.Errorf("year-1 diesel (%v) not below solar (%v)", d, s)
	}
}

func TestDepreciationBreakdown(t *testing.T) {
	a := Default()
	insure := TotalAnnual(a.Depreciation(SolarBattery))
	dg := TotalAnnual(a.Depreciation(Diesel))
	fc := TotalAnnual(a.Depreciation(FuelCell))
	// Fig 22: DG ≈ +20% and FC ≈ +24% over InSURE.
	dgExtra := float64(dg)/float64(insure) - 1
	fcExtra := float64(fc)/float64(insure) - 1
	if dgExtra < 0.10 || dgExtra > 0.45 {
		t.Errorf("diesel premium = %.0f%%, want ~20%%", dgExtra*100)
	}
	if fcExtra < 0.15 || fcExtra > 0.50 {
		t.Errorf("fuel-cell premium = %.0f%%, want ~24%%", fcExtra*100)
	}
	if fc <= dg {
		t.Errorf("fuel cell (%v) should cost more than diesel (%v)", fc, dg)
	}
	// §6.5: solar array + inverter ≈ 8% of InSURE's annual depreciation,
	// battery ≈ 9%.
	var pv, inv, batt Dollars
	for _, c := range a.Depreciation(SolarBattery) {
		switch c.Name {
		case "PV Panels":
			pv = c.Annual
		case "Inverter":
			inv = c.Annual
		case "Battery":
			batt = c.Annual
		}
	}
	if frac := float64(pv+inv) / float64(insure); frac < 0.04 || frac > 0.15 {
		t.Errorf("PV+inverter share = %.0f%%, want ~8%%", frac*100)
	}
	// Our Table 1 battery pricing ($2/Ah × 210 Ah over 4 yr) gives a
	// smaller battery share than Fig 22's ~9%; assert it is at least a
	// visible slice.
	if frac := float64(batt) / float64(insure); frac < 0.015 || frac > 0.15 {
		t.Errorf("battery share = %.1f%%, want a small but visible slice", frac*100)
	}
}

func TestScaleOutBeatsCloud(t *testing.T) {
	a := Default()
	cloud := a.CloudRelianceCost()
	prev := Dollars(0)
	for _, sunshine := range []float64{1.0, 0.8, 0.6, 0.4} {
		scale := a.ScaleOutCost(sunshine)
		if scale <= prev {
			t.Errorf("scale-out cost should grow as sunshine drops: %v at %.0f%%", scale, sunshine*100)
		}
		prev = scale
		if scale >= cloud {
			t.Errorf("sunshine %.0f%%: scale-out (%v) not below cloud (%v)", sunshine*100, scale, cloud)
		}
	}
	// Fig 23: up to 60% savings.
	if saving := 1 - float64(a.ScaleOutCost(1))/float64(cloud); saving < 0.5 {
		t.Errorf("best-case scale-out saving = %.0f%%, want >50%%", saving*100)
	}
	if !math.IsInf(float64(a.ScaleOutCost(0)), 1) {
		t.Error("zero sunshine should be unserviceable")
	}
}

func TestCrossoverNearPaperValue(t *testing.T) {
	a := Default()
	// Fig 24: crossover at ~0.9 GB/day for the prototype.
	x := a.Crossover(1.0)
	if x < 0.3 || x > 3 {
		t.Errorf("crossover = %.2f GB/day, want ~0.9", x)
	}
	// Below crossover the cloud is cheaper; above, in-situ wins.
	if a.InSituTCO(x/4, 1) <= a.CloudTCO(x/4) {
		t.Error("in-situ should lose below the crossover")
	}
	if a.InSituTCO(x*4, 1) >= a.CloudTCO(x*4) {
		t.Error("in-situ should win above the crossover")
	}
	// Lower sunshine pushes the crossover to higher data rates.
	if a.Crossover(0.4) <= x {
		t.Error("crossover should move right as sunshine drops")
	}
}

func TestHighRateSavings(t *testing.T) {
	a := Default()
	// Fig 24: at 500 GB/day in-situ yields up to ~96% cost reduction.
	saving := 1 - float64(a.InSituTCO(500, 1))/float64(a.CloudTCO(500))
	if saving < 0.85 {
		t.Errorf("500 GB/day saving = %.0f%%, want >85%% (paper: 96%%)", saving*100)
	}
}

func TestScenarioSavings(t *testing.T) {
	a := Default()
	want := map[string][2]float64{
		"A": {0.40, 0.70},  // paper: 47–55%
		"B": {0.0, 0.40},   // paper: 15%
		"C": {0.70, 0.97},  // paper: 77–93%
		"D": {0.85, 0.99},  // paper: 94–95%
		"E": {0.85, 0.995}, // paper: 94–97%
	}
	for _, s := range Scenarios() {
		saving := a.ScenarioSaving(s)
		bounds := want[s.Key]
		if saving < bounds[0] || saving > bounds[1] {
			t.Errorf("scenario %s (%s): saving %.0f%% outside [%.0f%%, %.0f%%]",
				s.Key, s.Name, saving*100, bounds[0]*100, bounds[1]*100)
		}
	}
}

func TestOptionStrings(t *testing.T) {
	for _, o := range ITOptions() {
		if o.String() == "unknown" || o.String() == "" {
			t.Errorf("option %d has no name", o)
		}
	}
	for _, g := range Generators() {
		if g.String() == "unknown" || g.String() == "" {
			t.Errorf("generator %d has no name", g)
		}
	}
}

func TestDollarsK(t *testing.T) {
	if Dollars(2500).K() != 2.5 {
		t.Error("K conversion wrong")
	}
}

func TestAWSEgressBeyondTopTier(t *testing.T) {
	// Above 500 TB the marginal rate drops to $30/TB; the average keeps
	// declining smoothly.
	if a, b := AWSEgressPerTB(500), AWSEgressPerTB(2000); b >= a {
		t.Errorf("average rate should keep falling: %v then %v", a, b)
	}
}

func TestInSituTCOUnserviceableSunshine(t *testing.T) {
	a := Default()
	if !math.IsInf(float64(a.InSituTCO(10, 0)), 1) {
		t.Error("zero sunshine should be unserviceable")
	}
}

func TestCrossoverLowBound(t *testing.T) {
	// If in-situ were free it would win at any rate; the solver must
	// return its lower probe bound rather than diverge.
	a := Default()
	a.ServerUnitCost, a.HVAC, a.PDU, a.NetworkSwitch = 0, 0, 0, 0
	a.SolarPerW, a.BatteryPerAh, a.InverterCost = 0, 0, 0
	a.MaintenancePerY, a.CellularHW = 0, 0
	a.ResidualFrac = 0
	if x := a.Crossover(1); x > 0.02 {
		t.Errorf("free in-situ crossover = %v, want the probe floor", x)
	}
}

func TestMigrationTariffAccountingLinear(t *testing.T) {
	tar := DefaultMigrationTariff()
	if e := tar.EnergyWh(10); e != 10*tar.WhPerGB {
		t.Errorf("EnergyWh(10) = %v", e)
	}
	if c := tar.Cost(10); c != Dollars(10*float64(tar.PerGB)) {
		t.Errorf("Cost(10) = %v", c)
	}
}

func TestMarginalEnergyPrice(t *testing.T) {
	a := Default()
	price := a.MarginalEnergyPrice()
	// Amortised solar+battery energy: positive, and within an order of
	// magnitude of grid/PPA rates — a request account priced in absurd
	// dollars would poison every serving-plane report downstream.
	if price <= 0.01 || price > 5 {
		t.Fatalf("marginal energy price $%.3f/kWh outside plausible range", float64(price))
	}
	// It is the flat amortisation of the energy TCO over delivered kWh.
	want := float64(a.EnergyTCO(SolarBattery, a.BatteryLifeYears)) /
		(a.DailyLoadKWh * 365 * a.BatteryLifeYears)
	if math.Abs(float64(price)-want) > 1e-9 {
		t.Fatalf("price $%v, want TCO amortisation $%v", price, want)
	}
	// Degenerate assumptions must not divide by zero.
	var zero Assumptions
	if p := zero.MarginalEnergyPrice(); p != 0 {
		t.Fatalf("zero assumptions price = %v, want 0", p)
	}
}

func TestServingTariffRequestAccount(t *testing.T) {
	tar := DefaultServingTariff()
	if tar.PerKWh != Default().MarginalEnergyPrice() {
		t.Fatalf("default tariff must price at the marginal energy rate")
	}
	// Linear in response size, with the per-request floor.
	if got, want := tar.RequestWh(0), tar.BaseWh; got != want {
		t.Errorf("RequestWh(0) = %v, want floor %v", got, want)
	}
	if got, want := tar.RequestWh(16), tar.BaseWh+16*tar.WhPerKB; got != want {
		t.Errorf("RequestWh(16) = %v, want %v", got, want)
	}
	// Negative sizes clamp to the floor instead of minting energy credits.
	if got := tar.RequestWh(-5); got != tar.BaseWh {
		t.Errorf("RequestWh(-5) = %v, want clamped floor %v", got, tar.BaseWh)
	}
	// Dollar account: Wh/1000 at the kWh price.
	if got, want := float64(tar.RequestCost(16)), float64(tar.PerKWh)*tar.RequestWh(16)/1000; math.Abs(got-want) > 1e-15 {
		t.Errorf("RequestCost(16) = %v, want %v", got, want)
	}
	// Sanity anchor: a day of 1M standard requests (16 KB) should cost
	// cents-to-dollars, not fractions of a cent or thousands.
	day := float64(tar.RequestCost(16)) * 1e6
	if day < 0.001 || day > 100 {
		t.Errorf("1M requests/day = $%v, outside plausible band", day)
	}
}
