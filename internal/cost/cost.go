// Package cost implements the paper's techno-economic models: bulk data
// movement overhead (Fig 1), IT- and energy-related TCO of in-situ
// processing versus transmission and fuel-based generation (Fig 3,
// Table 1), depreciation breakdowns (Fig 22), scale-out economics under
// varying sunshine (Fig 23), the in-situ/cloud crossover (Fig 24), and the
// application scenarios of Fig 25.
//
// All dollar figures are calibrated to the sources the paper cites
// (2014-era prices): AWS egress tiers, Globus/satellite/cellular service
// rates, and the generator cost parameters of Table 1.
package cost

import (
	"math"
)

// Dollars is a cost in US dollars.
type Dollars float64

// K returns the value in thousands of dollars.
func (d Dollars) K() float64 { return float64(d) / 1000 }

// --- Fig 1a: transfer time -------------------------------------------------

// Link is a network link class with its effective throughput.
type Link struct {
	Name string
	Mbps float64
}

// TypicalLinks are the link classes of Fig 1a, slowest to fastest.
func TypicalLinks() []Link {
	return []Link{
		{"T1 (1.5 Mbps)", 1.5},
		{"10 Mbps", 10},
		{"100 Mbps", 100},
		{"1 GbE", 1000},
		{"10 GbE", 10000},
	}
}

// HoursPerTB is the time to move one terabyte over the link at 80% goodput.
func (l Link) HoursPerTB() float64 {
	bits := 1e12 * 8 // one decimal terabyte
	seconds := bits / (l.Mbps * 1e6 * 0.8)
	return seconds / 3600
}

// --- Fig 1b: AWS egress ----------------------------------------------------

// egressTier is one AWS data-transfer-out pricing tier (Jan 2014).
type egressTier struct {
	uptoTB float64 // upper bound of the tier in TB
	perGB  float64
}

var egressTiers = []egressTier{
	{10, 0.120},
	{50, 0.090},
	{150, 0.070},
	{500, 0.050},
	{math.Inf(1), 0.030},
}

// AWSEgress returns the total cost of transferring tb terabytes out of AWS.
func AWSEgress(tb float64) Dollars {
	var total, prev float64
	for _, t := range egressTiers {
		if tb <= prev {
			break
		}
		span := math.Min(tb, t.uptoTB) - prev
		total += span * 1000 * t.perGB
		prev = t.uptoTB
	}
	return Dollars(total)
}

// AWSEgressPerTB is the average $/TB at the given volume (Fig 1b's y-axis).
func AWSEgressPerTB(tb float64) Dollars {
	if tb <= 0 {
		return 0
	}
	return AWSEgress(tb) / Dollars(tb)
}

// --- Fleet federation: cross-site migration accounting -----------------------

// MigrationTariff prices moving work between federated in-situ sites: the
// inter-site backhaul link, the radio/switching energy spent per shipped
// gigabyte, and the carrier's per-GB service charge. The energy figure is
// bookkeeping against the migration decision (is shipping the job cheaper
// than shedding it?) — the backhaul radio is not modelled inside the plant
// power simulation.
type MigrationTariff struct {
	Link Link
	// WhPerGB is the end-to-end transmission energy per gigabyte.
	WhPerGB float64
	// PerGB is the backhaul service cost per gigabyte.
	PerGB Dollars
	// VMImageGB sizes one shipped VM checkpoint image.
	VMImageGB float64
}

// DefaultMigrationTariff models a dedicated 100 Mbps point-to-point
// backhaul between sites: ~3 Wh/GB of radio energy (long-range microwave
// class) and a $0.10/GB service rate — far below the $10/GB cellular rate
// because federated sites own the link.
func DefaultMigrationTariff() MigrationTariff {
	return MigrationTariff{
		Link:      Link{"fleet backhaul (100 Mbps)", 100},
		WhPerGB:   3.0,
		PerGB:     0.10,
		VMImageGB: 4,
	}
}

// EnergyWh is the transmission energy spent shipping gb gigabytes.
func (t MigrationTariff) EnergyWh(gb float64) float64 { return t.WhPerGB * gb }

// Cost is the backhaul service charge for shipping gb gigabytes.
func (t MigrationTariff) Cost(gb float64) Dollars { return Dollars(float64(t.PerGB) * gb) }

// BytesPerGB converts between the tariff's decimal-gigabyte pricing and
// the chunked transfer engine's byte offsets.
const BytesPerGB = 1e9

// EnergyWhBytes is the transmission energy for a byte count — including
// retransmitted bytes: on a lossy backhaul every attempt spends radio
// energy whether or not the chunk survives, so retries are metered at the
// same rate as goodput.
func (t MigrationTariff) EnergyWhBytes(b int64) float64 {
	return t.EnergyWh(float64(b) / BytesPerGB)
}

// CostBytes is the backhaul service charge for a byte count (carriers
// bill attempted traffic, not delivered traffic).
func (t MigrationTariff) CostBytes(b int64) Dollars {
	return t.Cost(float64(b) / BytesPerGB)
}

// --- Serving plane: the energy price of a request ----------------------------

// ServingTariff prices one interactive request served by the in-situ
// cluster: a fixed per-request energy floor (request parsing, scheduling,
// network interrupt load) plus a per-kilobyte term for materialising and
// transmitting the response, valued at the plant's marginal cost of a
// delivered watt-hour. The gateway (internal/gateway) meters every admitted
// request through this, so the serving plane's energy account is in the
// same dollars as the paper's TCO models.
type ServingTariff struct {
	// BaseWh is the fixed energy floor per request.
	BaseWh float64
	// WhPerKB is the marginal energy per kilobyte of response.
	WhPerKB float64
	// PerKWh is the marginal cost of one delivered kilowatt-hour of plant
	// energy (see Assumptions.MarginalEnergyPrice).
	PerKWh Dollars
}

// DefaultServingTariff prices requests against the paper-calibrated plant:
// ~0.2 mWh per request (a few hundred ms of one core's share of a Xeon
// node's dynamic power) plus 0.01 mWh/KB of response, at the prototype's
// marginal solar+battery energy price.
func DefaultServingTariff() ServingTariff {
	return ServingTariff{
		BaseWh:  0.0002,
		WhPerKB: 0.00001,
		PerKWh:  Default().MarginalEnergyPrice(),
	}
}

// RequestWh is the energy one request with a respKB-kilobyte response costs.
func (t ServingTariff) RequestWh(respKB float64) float64 {
	if respKB < 0 {
		respKB = 0
	}
	return t.BaseWh + t.WhPerKB*respKB
}

// RequestCost is the marginal dollar cost of one request.
func (t ServingTariff) RequestCost(respKB float64) Dollars {
	return Dollars(float64(t.PerKWh) * t.RequestWh(respKB) / 1000)
}

// MarginalEnergyPrice is the amortised cost of one delivered kWh from the
// standalone solar+battery system over the battery's service life — the
// $/kWh the serving tariff values a request's energy at.
func (a Assumptions) MarginalEnergyPrice() Dollars {
	years := a.BatteryLifeYears
	kWh := a.DailyLoadKWh * 365 * years
	if kWh <= 0 {
		return 0
	}
	return Dollars(float64(a.EnergyTCO(SolarBattery, years)) / kWh)
}

// --- Table 1 / §2.1 / §6.5 assumptions --------------------------------------

// Assumptions collects every calibrated price. Callers may adjust fields
// before running the models; Default() matches the paper's sources.
type Assumptions struct {
	// IT equipment (the four-server prototype, §4).
	ServerUnitCost  Dollars
	ServerCount     int
	NetworkSwitch   Dollars
	PDU             Dollars
	HVAC            Dollars
	ITLifeYears     float64
	MaintenancePerY Dollars

	// Standalone solar system (Table 1).
	SolarPerW        Dollars // $2/W
	SolarW           float64 // installed watts (1.6 kW prototype)
	BatteryPerAh     Dollars // $2/Ah
	BatteryAh        float64 // 210 Ah prototype buffer
	BatteryLifeYears float64 // 4 yr
	InverterCost     Dollars
	SolarLifeYears   float64

	// Diesel generator (Table 1).
	DieselPerKW     Dollars // $370/kW
	DieselLifeYears float64 // 5 yr
	DieselPerKWh    Dollars // $0.40/kWh

	// Fuel cell (Table 1).
	FuelCellPerW      Dollars // $5/W
	FCStackLifeYears  float64 // 5 yr
	FCSystemLifeYears float64 // 10 yr
	FuelCellPerKWh    Dollars // $0.16/kWh

	// Communication (§2.1 and [45–47]).
	SatelliteHW       Dollars // dish receiver ≈ $11.5K
	SatellitePerMonth Dollars // full service ≈ $30K/month
	SatelliteBackup   Dollars // reduced backup plan per month
	CellularHW        Dollars // 4G gateway ≈ $1K
	CellularPerGB     Dollars // ≈ $10/GB

	// Workload/site characteristics.
	RawGBPerDay     float64 // raw data produced at the site
	ResidualFrac    float64 // fraction still shipped after pre-processing
	DailyLoadKWh    float64 // cluster energy demand per day
	SiteCapacityGBD float64 // data the prototype can process per day
	CloudPerGB      Dollars // cloud-side processing + storage per raw GB
}

// Default returns the paper-calibrated assumptions.
func Default() Assumptions {
	return Assumptions{
		ServerUnitCost:  3000,
		ServerCount:     4,
		NetworkSwitch:   500,
		PDU:             600,
		HVAC:            2000,
		ITLifeYears:     5,
		MaintenancePerY: 508, // ≈12% of annual depreciation (§6.5)

		SolarPerW:        2,
		SolarW:           1600,
		BatteryPerAh:     2,
		BatteryAh:        210,
		BatteryLifeYears: 4,
		InverterCost:     800,
		SolarLifeYears:   10,

		DieselPerKW:     370,
		DieselLifeYears: 5,
		DieselPerKWh:    0.40,

		FuelCellPerW:      5,
		FCStackLifeYears:  5,
		FCSystemLifeYears: 10,
		FuelCellPerKWh:    0.16,

		SatelliteHW:       11500,
		SatellitePerMonth: 30000,
		SatelliteBackup:   12800,
		CellularHW:        1000,
		CellularPerGB:     10,

		RawGBPerDay:     25,
		ResidualFrac:    0.04,
		DailyLoadKWh:    8,
		SiteCapacityGBD: 230,
		CloudPerGB:      0.25,
	}
}

// itCapEx is the one-time in-situ IT hardware cost.
func (a Assumptions) itCapEx() Dollars {
	return Dollars(float64(a.ServerUnitCost)*float64(a.ServerCount)) +
		a.NetworkSwitch + a.PDU + a.HVAC
}

// powerCapEx is the one-time standalone power-system cost.
func (a Assumptions) powerCapEx() Dollars {
	return Dollars(float64(a.SolarPerW)*a.SolarW) +
		Dollars(float64(a.BatteryPerAh)*a.BatteryAh) + a.InverterCost
}

// --- Fig 3a: IT-related TCO --------------------------------------------------

// ITOption identifies a data-handling strategy of Fig 3a.
type ITOption int

const (
	SatelliteOnly ITOption = iota
	CellularOnly
	InSituPlusSatellite
	InSituPlusCellular
)

func (o ITOption) String() string {
	switch o {
	case SatelliteOnly:
		return "Satellite(SA)"
	case CellularOnly:
		return "Cellular(4G)"
	case InSituPlusSatellite:
		return "In Situ + SA"
	case InSituPlusCellular:
		return "In Situ + 4G"
	default:
		return "unknown"
	}
}

// ITOptions lists Fig 3a's four strategies in paper order.
func ITOptions() []ITOption {
	return []ITOption{SatelliteOnly, CellularOnly, InSituPlusSatellite, InSituPlusCellular}
}

// ITTCO returns the cumulative cost (CapEx + OpEx) of the strategy after
// the given number of years.
func (a Assumptions) ITTCO(o ITOption, years float64) Dollars {
	months := years * 12
	days := years * 365
	switch o {
	case SatelliteOnly:
		return a.SatelliteHW + Dollars(float64(a.SatellitePerMonth)*months)
	case CellularOnly:
		return a.CellularHW + Dollars(float64(a.CellularPerGB)*a.RawGBPerDay*days)
	case InSituPlusSatellite:
		insitu := a.itCapEx() + a.powerCapEx() + a.batteryReplacement(years) +
			Dollars(float64(a.MaintenancePerY)*years)
		return insitu + a.SatelliteHW + Dollars(float64(a.SatelliteBackup)*months)
	case InSituPlusCellular:
		insitu := a.itCapEx() + a.powerCapEx() + a.batteryReplacement(years) +
			Dollars(float64(a.MaintenancePerY)*years)
		return insitu + a.CellularHW +
			Dollars(float64(a.CellularPerGB)*a.RawGBPerDay*a.ResidualFrac*days)
	}
	return 0
}

// batteryReplacement is the cost of battery refreshes over the horizon.
func (a Assumptions) batteryReplacement(years float64) Dollars {
	replacements := math.Max(0, math.Ceil(years/a.BatteryLifeYears)-1)
	return Dollars(replacements * float64(a.BatteryPerAh) * a.BatteryAh)
}

// --- Fig 3b / Table 1: energy-related TCO -----------------------------------

// Generator identifies an on-site generation option.
type Generator int

const (
	SolarBattery Generator = iota
	FuelCell
	Diesel
)

func (g Generator) String() string {
	switch g {
	case SolarBattery:
		return "In-Situ (solar+battery)"
	case FuelCell:
		return "Fuel Cell"
	case Diesel:
		return "Diesel"
	default:
		return "unknown"
	}
}

// Generators lists Fig 3b's options in paper order.
func Generators() []Generator { return []Generator{SolarBattery, FuelCell, Diesel} }

// EnergyTCO returns the cumulative cost of powering the site for the given
// number of years with the chosen generator, sized at the prototype's
// 1.6 kW / DailyLoadKWh demand.
func (a Assumptions) EnergyTCO(g Generator, years float64) Dollars {
	kWh := a.DailyLoadKWh * 365 * years
	switch g {
	case SolarBattery:
		solar := Dollars(float64(a.SolarPerW) * a.SolarW)
		batt := Dollars(float64(a.BatteryPerAh) * a.BatteryAh)
		// Panel refresh at end of solar life, battery refresh every 4 yr.
		solarReplacements := math.Max(0, math.Ceil(years/a.SolarLifeYears)-1)
		return solar + a.InverterCost + batt + a.batteryReplacement(years) +
			Dollars(solarReplacements*float64(solar))
	case FuelCell:
		sysCost := Dollars(float64(a.FuelCellPerW) * a.SolarW)
		stackReplacements := math.Max(0, math.Ceil(years/a.FCStackLifeYears)-1)
		sysReplacements := math.Max(0, math.Ceil(years/a.FCSystemLifeYears)-1)
		stack := 0.4 * float64(sysCost) // stack is ~40% of system cost
		return sysCost + Dollars(stackReplacements*stack) +
			Dollars(sysReplacements*float64(sysCost)) +
			Dollars(float64(a.FuelCellPerKWh)*kWh)
	case Diesel:
		gen := Dollars(float64(a.DieselPerKW) * a.SolarW / 1000)
		replacements := math.Max(0, math.Ceil(years/a.DieselLifeYears)-1)
		return gen + Dollars(replacements*float64(gen)) +
			Dollars(float64(a.DieselPerKWh)*kWh)
	}
	return 0
}

// --- Fig 22: annual depreciation breakdown ----------------------------------

// Component is one bar segment of Fig 22.
type Component struct {
	Name   string
	Annual Dollars
}

// Depreciation returns the annual depreciation breakdown for an in-situ
// system powered by the given generator.
func (a Assumptions) Depreciation(g Generator) []Component {
	base := []Component{
		{"Server", Dollars(float64(a.ServerUnitCost) * float64(a.ServerCount) / a.ITLifeYears)},
		{"Cellular", Dollars(float64(a.CellularHW) / a.ITLifeYears)},
		{"HVAC", Dollars(float64(a.HVAC) / a.ITLifeYears)},
		{"PDU", Dollars(float64(a.PDU) / a.ITLifeYears)},
		{"Switch", Dollars(float64(a.NetworkSwitch) / a.ITLifeYears)},
		{"Maintenance", a.MaintenancePerY},
	}
	switch g {
	case SolarBattery:
		base = append(base,
			Component{"Battery", Dollars(float64(a.BatteryPerAh) * a.BatteryAh / a.BatteryLifeYears)},
			Component{"PV Panels", Dollars(float64(a.SolarPerW) * a.SolarW / a.SolarLifeYears)},
			Component{"Inverter", Dollars(float64(a.InverterCost) / a.SolarLifeYears)},
		)
	case Diesel:
		gen := float64(a.DieselPerKW) * a.SolarW / 1000
		fuel := float64(a.DieselPerKWh) * a.DailyLoadKWh * 365
		base = append(base,
			Component{"Generator", Dollars(gen / a.DieselLifeYears)},
			Component{"Fuel", Dollars(fuel)},
		)
	case FuelCell:
		sys := float64(a.FuelCellPerW) * a.SolarW
		fuel := float64(a.FuelCellPerKWh) * a.DailyLoadKWh * 365
		base = append(base,
			Component{"Generator", Dollars(sys / a.FCSystemLifeYears * 1.4)}, // system + stack refresh
			Component{"Fuel", Dollars(fuel)},
		)
	}
	return base
}

// TotalAnnual sums a depreciation breakdown.
func TotalAnnual(parts []Component) Dollars {
	var total Dollars
	for _, p := range parts {
		total += p.Annual
	}
	return total
}

// --- Fig 23: scale-out vs cloud ----------------------------------------------

// ScaleOutCost is the amortised annual cost of scaling the in-situ system
// out to meet the site's processing demand at the given sunshine fraction
// (§6.5: lower sunshine → lower per-system throughput → more systems).
func (a Assumptions) ScaleOutCost(sunshine float64) Dollars {
	if sunshine <= 0 {
		return Dollars(math.Inf(1))
	}
	systems := 1.0 / sunshine // capacity scales with harvested energy
	annualIT := float64(a.itCapEx()) / a.ITLifeYears
	annualPower := float64(a.powerCapEx())/a.SolarLifeYears +
		float64(a.BatteryPerAh)*a.BatteryAh/a.BatteryLifeYears
	annual := (annualIT+annualPower)*systems + float64(a.MaintenancePerY) +
		float64(a.CellularPerGB)*a.RawGBPerDay*a.ResidualFrac*365
	return Dollars(annual)
}

// CloudRelianceCost is the amortised annual cost of shipping everything to
// the cloud instead (cellular transmission + cloud processing).
func (a Assumptions) CloudRelianceCost() Dollars {
	return Dollars((float64(a.CellularPerGB)+float64(a.CloudPerGB))*a.RawGBPerDay*365 +
		float64(a.CellularHW)/a.ITLifeYears)
}

// --- Fig 24: TCO vs data rate -------------------------------------------------

// CloudTCO is the five-year cost of cloud-based remote processing at the
// given raw data rate.
func (a Assumptions) CloudTCO(gbPerDay float64) Dollars {
	const years = 5.0
	return a.CellularHW +
		Dollars((float64(a.CellularPerGB)+float64(a.CloudPerGB))*gbPerDay*365*years)
}

// InSituTCO is the five-year cost of local processing at the given raw
// data rate and sunshine fraction: enough replicated systems to cover the
// demand, plus residual transmission.
func (a Assumptions) InSituTCO(gbPerDay, sunshine float64) Dollars {
	const years = 5.0
	if sunshine <= 0 {
		return Dollars(math.Inf(1))
	}
	capacity := a.SiteCapacityGBD * sunshine
	systems := math.Max(1, math.Ceil(gbPerDay/capacity))
	// Lower sunshine also means a bigger power system (panels + buffer)
	// per unit of compute, not just more systems.
	perSystem := float64(a.itCapEx()) + float64(a.powerCapEx())/sunshine +
		float64(a.batteryReplacement(years))
	residual := float64(a.CellularPerGB) * gbPerDay * a.ResidualFrac * 365 * years
	return Dollars(systems*perSystem + float64(a.MaintenancePerY)*years + residual + float64(a.CellularHW))
}

// Crossover finds the data rate (GB/day) above which in-situ processing at
// the given sunshine fraction becomes cheaper than the cloud (Fig 24's
// "cost-effective zone" boundary, ~0.9 GB/day for the prototype).
func (a Assumptions) Crossover(sunshine float64) float64 {
	lo, hi := 0.01, 1000.0
	if a.InSituTCO(lo, sunshine) <= a.CloudTCO(lo) {
		return lo
	}
	for i := 0; i < 60; i++ {
		mid := math.Sqrt(lo * hi) // bisect in log space
		if a.InSituTCO(mid, sunshine) <= a.CloudTCO(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// --- Fig 25: application scenarios --------------------------------------------

// Scenario is one bubble of Fig 25.
type Scenario struct {
	Key       string
	Name      string
	GBPerDay  float64
	Days      float64
	ReplaceHW bool // long deployments replace hardware
}

// Scenarios returns the paper's five in-situ big-data applications.
func Scenarios() []Scenario {
	return []Scenario{
		{"A", "Seismic Analysis", 228, 30, false},
		{"B", "Post-Earthquake Disaster Monitoring", 36, 60, false},
		{"C", "Wildlife Behavior Study", 30, 365, false},
		{"D", "Coastal Monitoring", 80, 730, true},
		{"E", "Volcano Surveillance", 120, 1000, true},
	}
}

// ScenarioSaving returns the fractional cost saving of in-situ processing
// versus cloud reliance for the scenario.
func (a Assumptions) ScenarioSaving(s Scenario) float64 {
	years := s.Days / 365
	cloud := float64(a.CellularHW) +
		(float64(a.CellularPerGB)+float64(a.CloudPerGB))*s.GBPerDay*s.Days
	capacityNeeded := math.Max(1, math.Ceil(s.GBPerDay/a.SiteCapacityGBD))
	perSystem := float64(a.itCapEx() + a.powerCapEx())
	if s.ReplaceHW {
		perSystem *= 1 + math.Max(0, years-a.ITLifeYears)/a.ITLifeYears
	}
	insitu := capacityNeeded*perSystem +
		float64(a.batteryReplacement(years))*capacityNeeded +
		float64(a.MaintenancePerY)*years +
		float64(a.CellularPerGB)*s.GBPerDay*a.ResidualFrac*s.Days +
		float64(a.CellularHW)
	if cloud <= 0 {
		return 0
	}
	return 1 - insitu/cloud
}
