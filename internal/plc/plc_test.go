package plc

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"insure/internal/units"
)

func TestAddressHelpers(t *testing.T) {
	if CoilCharge(0) != 0 || CoilDischarge(0) != 1 {
		t.Error("unit 0 coil addresses wrong")
	}
	if CoilCharge(5) != 10 || CoilDischarge(5) != 11 {
		t.Error("unit 5 coil addresses wrong")
	}
	if InputVolt(3) != 6 || InputCurrent(3) != 7 {
		t.Error("unit 3 input addresses wrong")
	}
}

func TestRegisterFileCoils(t *testing.T) {
	r := NewRegisterFile(8, 0, 0, 0)
	if err := r.WriteCoil(3, true); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadCoils(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !got[1] || got[0] || got[2] {
		t.Errorf("coils = %v", got)
	}
}

func TestRegisterFileBounds(t *testing.T) {
	r := NewRegisterFile(4, 4, 4, 4)
	if err := r.WriteCoil(4, true); !errors.Is(err, ErrAddress) {
		t.Errorf("coil OOB error = %v", err)
	}
	if _, err := r.ReadCoils(3, 2); !errors.Is(err, ErrAddress) {
		t.Errorf("coil read OOB error = %v", err)
	}
	if _, err := r.ReadHolding(0, 5); !errors.Is(err, ErrAddress) {
		t.Errorf("holding OOB error = %v", err)
	}
	if err := r.WriteHolding(3, []uint16{1, 2}); !errors.Is(err, ErrAddress) {
		t.Errorf("holding write OOB error = %v", err)
	}
	if err := r.SetInputs(9, []uint16{1}); !errors.Is(err, ErrAddress) {
		t.Errorf("input OOB error = %v", err)
	}
	if _, err := r.ReadDiscrete(2, 3); !errors.Is(err, ErrAddress) {
		t.Errorf("discrete OOB error = %v", err)
	}
}

// TestBlockCallsBounds checks that an out-of-range SetInputs or CoilsInto
// fails with ErrAddress and touches nothing: no partial block is written,
// and the destination of a failed coil read keeps its contents.
func TestBlockCallsBounds(t *testing.T) {
	r := NewRegisterFile(4, 0, 0, 4)
	if err := r.SetInputs(0, []uint16{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteCoil(3, true); err != nil {
		t.Fatal(err)
	}
	if err := r.SetInputs(2, []uint16{7, 7, 7}); !errors.Is(err, ErrAddress) {
		t.Errorf("SetInputs OOB error = %v", err)
	}
	if err := r.SetInputs(4, []uint16{7}); !errors.Is(err, ErrAddress) {
		t.Errorf("SetInputs past end error = %v", err)
	}
	if got, _ := r.ReadInput(0, 4); !reflect.DeepEqual(got, []uint16{1, 2, 3, 4}) {
		t.Errorf("inputs after failed SetInputs = %v, want untouched", got)
	}
	dst := []bool{true, false, true}
	if err := r.CoilsInto(dst, 2); !errors.Is(err, ErrAddress) {
		t.Errorf("CoilsInto OOB error = %v", err)
	}
	if !reflect.DeepEqual(dst, []bool{true, false, true}) {
		t.Errorf("dst after failed CoilsInto = %v, want untouched", dst)
	}
	if got, _ := r.ReadCoils(0, 4); !reflect.DeepEqual(got, []bool{false, false, false, true}) {
		t.Errorf("coils after failed CoilsInto = %v, want untouched", got)
	}
	if err := r.SetCoils(2, []bool{true, true, true}); !errors.Is(err, ErrAddress) {
		t.Errorf("SetCoils OOB error = %v", err)
	}
	if got, _ := r.ReadCoils(0, 4); !reflect.DeepEqual(got, []bool{false, false, false, true}) {
		t.Errorf("coils after failed SetCoils = %v, want untouched", got)
	}
	// In-range edge blocks succeed, including the empty block at the end.
	if err := r.SetInputs(4, nil); err != nil {
		t.Errorf("empty SetInputs at end = %v", err)
	}
	if err := r.SetCoils(4, nil); err != nil {
		t.Errorf("empty SetCoils at end = %v", err)
	}
	if err := r.CoilsInto(dst[:2], 2); err != nil || dst[0] || !dst[1] {
		t.Errorf("CoilsInto(2..3) = %v, %v", dst[:2], err)
	}
	if err := r.SetCoils(1, []bool{true, false, false}); err != nil {
		t.Fatal(err)
	}
	if got, _ := r.ReadCoils(0, 4); !reflect.DeepEqual(got, []bool{false, true, false, false}) {
		t.Errorf("coils after SetCoils(1..3) = %v", got)
	}
}

// TestBlockCallsAllocFree pins the scan cycle's and the coordinator's block
// calls at zero allocations.
func TestBlockCallsAllocFree(t *testing.T) {
	r := NewRegisterFile(12, 0, 0, 12)
	in := make([]uint16, 12)
	coils := make([]bool, 12)
	if n := testing.AllocsPerRun(1000, func() {
		_ = r.SetInputs(0, in)
		_ = r.SetCoils(0, coils)
		_ = r.CoilsInto(coils, 0)
	}); n != 0 {
		t.Fatalf("SetInputs+SetCoils+CoilsInto allocate %.2f times per call, want 0", n)
	}
}

// TestSetInputsImageNeverTorn publishes whole scan images — every one of
// the 2n unit codes set to k, for k = 1, 2, ... — while readers fetch the
// block the way a Modbus client does. Each read must see exactly one k: a
// block written under one lock is never seen half old, half new. Run it
// with -race.
func TestSetInputsImageNeverTorn(t *testing.T) {
	const n = 6
	r := NewRegisterFile(0, 0, 0, 2*n)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				img, err := r.ReadInput(0, 2*n)
				if err != nil {
					t.Error(err)
					return
				}
				for _, v := range img[1:] {
					if v != img[0] {
						t.Errorf("torn scan image: %v", img)
						return
					}
				}
			}
		}()
	}
	img := make([]uint16, 2*n)
	for k := uint16(1); k <= 3000; k++ {
		for i := range img {
			img[i] = k
		}
		if err := r.SetInputs(0, img); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

func TestPowerCode(t *testing.T) {
	for _, tc := range []struct {
		w    units.Watt
		want uint16
	}{
		{-5, 0},
		{0, 0},
		{412.9, 412},
		{65535, 65535},
		{70000, 65535},
	} {
		if got := PowerCode(tc.w); got != tc.want {
			t.Errorf("PowerCode(%v) = %d, want %d", float64(tc.w), got, tc.want)
		}
	}
}

func TestRegisterFileHolding(t *testing.T) {
	r := NewRegisterFile(0, 0, 8, 0)
	if err := r.WriteHolding(2, []uint16{100, 200}); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadHolding(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 100 || got[1] != 200 {
		t.Errorf("holding = %v", got)
	}
}

func TestRegisterFileInputAndDiscrete(t *testing.T) {
	r := NewRegisterFile(0, 4, 0, 4)
	if err := r.SetInputs(1, []uint16{2048}); err != nil {
		t.Fatal(err)
	}
	in, err := r.ReadInput(0, 2)
	if err != nil || in[1] != 2048 {
		t.Fatalf("input read = %v, %v", in, err)
	}
	if err := r.SetDiscrete(0, true); err != nil {
		t.Fatal(err)
	}
	d, err := r.ReadDiscrete(0, 1)
	if err != nil || !d[0] {
		t.Fatalf("discrete read = %v, %v", d, err)
	}
}

func TestRegisterFileConcurrency(t *testing.T) {
	r := NewRegisterFile(16, 0, 16, 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_ = r.WriteCoil(uint16(g), i%2 == 0)
				_, _ = r.ReadCoils(0, 16)
				_ = r.SetInputs(uint16(g), []uint16{uint16(i)})
				_, _ = r.ReadInput(0, 16)
			}
		}(g)
	}
	wg.Wait()
}

func TestPLCScanCycle(t *testing.T) {
	p := New(6)
	var sampled, actuated int
	p.Sample = func(r *RegisterFile) { sampled++; _ = r.SetInputs(0, []uint16{42}) }
	p.Actuate = func(r *RegisterFile) { actuated++ }
	p.Tick(time.Second)
	if sampled == 0 || actuated == 0 {
		t.Fatalf("scan did not run: sampled=%d actuated=%d", sampled, actuated)
	}
	if p.Scans() == 0 {
		t.Error("scan counter not advancing")
	}
	got, err := p.Regs.ReadInput(0, 1)
	if err != nil || got[0] != 42 {
		t.Errorf("sampled register = %v, %v", got, err)
	}
}

func TestPLCTickShorterThanScan(t *testing.T) {
	p := New(1)
	ran := 0
	p.Sample = func(*RegisterFile) { ran++ }
	p.Tick(3 * time.Millisecond) // below the 10 ms scan interval
	if ran != 0 {
		t.Error("scan ran before a full interval elapsed")
	}
	p.Tick(8 * time.Millisecond)
	if ran != 1 {
		t.Errorf("scan count = %d after 11 ms, want 1", ran)
	}
}

func TestPLCScanNow(t *testing.T) {
	p := New(1)
	ran := false
	p.Actuate = func(*RegisterFile) { ran = true }
	p.ScanNow()
	if !ran {
		t.Error("ScanNow did not execute the cycle")
	}
}
