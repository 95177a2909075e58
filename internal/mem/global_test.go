package mem

import (
	"errors"
	"fmt"
	"testing"
)

func TestNewGlobalValidation(t *testing.T) {
	if _, err := NewGlobal(16, 0); !errors.Is(err, ErrBadBlockSize) {
		t.Errorf("zero block size: %v", err)
	}
	if _, err := NewGlobal(-1, 4); !errors.Is(err, ErrBadSize) {
		t.Errorf("negative size: %v", err)
	}
	g, err := NewGlobal(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 16 || g.BlockSize() != 4 || g.NumBlocks() != 4 {
		t.Fatalf("geometry wrong: size=%d bs=%d blocks=%d", g.Size(), g.BlockSize(), g.NumBlocks())
	}
}

func TestGlobalNumBlocksPartialTail(t *testing.T) {
	g, err := NewGlobal(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumBlocks() != 3 {
		t.Fatalf("NumBlocks = %d, want 3 (two full + one partial)", g.NumBlocks())
	}
}

func TestGlobalLoadStore(t *testing.T) {
	g, _ := NewGlobal(8, 4)
	if err := g.Store(3, 42); err != nil {
		t.Fatal(err)
	}
	v, err := g.Load(3)
	if err != nil || v != 42 {
		t.Fatalf("Load(3) = %d, %v", v, err)
	}
	if _, err := g.Load(8); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Load(8): %v", err)
	}
	if _, err := g.Load(-1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Load(-1): %v", err)
	}
	if err := g.Store(8, 1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Store(8): %v", err)
	}
}

func TestGlobalBlockMapping(t *testing.T) {
	g, _ := NewGlobal(16, 4)
	for a := 0; a < 16; a++ {
		if got, want := g.Block(a), a/4; got != want {
			t.Errorf("Block(%d) = %d, want %d", a, got, want)
		}
	}
}

func TestGlobalSlices(t *testing.T) {
	g, _ := NewGlobal(8, 4)
	if err := g.WriteSlice(2, []Word{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, err := g.ReadSlice(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []Word{1, 2, 3} {
		if got[i] != want {
			t.Fatalf("ReadSlice[%d] = %d, want %d", i, got[i], want)
		}
	}
	if err := g.WriteSlice(6, []Word{1, 2, 3}); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("overflow write: %v", err)
	}
	if _, err := g.ReadSlice(6, 3); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("overflow read: %v", err)
	}
	if _, err := g.ReadSlice(0, -1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("negative length read: %v", err)
	}
	// ReadSlice must copy, not alias.
	got[0] = 99
	v, _ := g.Load(2)
	if v != 1 {
		t.Error("ReadSlice aliases device memory")
	}
}

func TestGlobalFill(t *testing.T) {
	g, _ := NewGlobal(8, 4)
	if err := g.Fill(2, 4, 7); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 8; a++ {
		v, _ := g.Load(a)
		want := Word(0)
		if a >= 2 && a < 6 {
			want = 7
		}
		if v != want {
			t.Fatalf("after Fill, [%d] = %d, want %d", a, v, want)
		}
	}
	if err := g.Fill(6, 4, 1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("overflow fill: %v", err)
	}
}

func TestArena(t *testing.T) {
	g, _ := NewGlobal(100, 4)
	a := NewArena(g)
	p1, err := a.Alloc(10)
	if err != nil || p1 != 0 {
		t.Fatalf("first alloc = %d, %v", p1, err)
	}
	p2, err := a.Alloc(5)
	if err != nil || p2 != 10 {
		t.Fatalf("second alloc = %d, %v", p2, err)
	}
	if a.Used() != 15 || a.Free() != 85 {
		t.Fatalf("Used=%d Free=%d", a.Used(), a.Free())
	}
	if _, err := a.Alloc(86); !errors.Is(err, ErrSizeExceeded) {
		t.Errorf("over-alloc: %v", err)
	}
	if _, err := a.Alloc(-1); !errors.Is(err, ErrBadSize) {
		t.Errorf("negative alloc: %v", err)
	}
	a.Reset()
	if a.Used() != 0 {
		t.Fatal("Reset should clear usage")
	}
}

func TestArenaAligned(t *testing.T) {
	g, _ := NewGlobal(100, 4)
	a := NewArena(g)
	if _, err := a.Alloc(3); err != nil {
		t.Fatal(err)
	}
	p, err := a.AllocAligned(8)
	if err != nil {
		t.Fatal(err)
	}
	if p%4 != 0 {
		t.Fatalf("aligned alloc at %d, want multiple of 4", p)
	}
	if p != 4 {
		t.Fatalf("aligned alloc at %d, want 4 (padding over 3)", p)
	}
	// Already aligned: no padding.
	p2, err := a.AllocAligned(4)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != 12 {
		t.Fatalf("second aligned alloc at %d, want 12", p2)
	}
}

func TestArenaExactFit(t *testing.T) {
	g, _ := NewGlobal(16, 4)
	a := NewArena(g)
	if _, err := a.Alloc(16); err != nil {
		t.Fatalf("exact-fit alloc failed: %v", err)
	}
	if _, err := a.Alloc(1); !errors.Is(err, ErrSizeExceeded) {
		t.Errorf("alloc past capacity: %v", err)
	}
}

// TestNewGlobalRecycled: a recycled array backs the memory when it holds
// size words, with [:size] cleared and the words beyond left alone; a
// short one is replaced by a fresh array and left untouched.
func TestNewGlobalRecycled(t *testing.T) {
	buf := []Word{1, 2, 3, 4, 5, 6, 7, 8}
	g, err := NewGlobal(6, 4, buf...)
	if err != nil {
		t.Fatal(err)
	}
	raw := g.Raw()
	if len(raw) != 6 || &raw[0] != &buf[0] {
		t.Fatalf("len %d, shares buf %v: want the first 6 words of buf", len(raw), &raw[0] == &buf[0])
	}
	if got := fmt.Sprint(buf); got != "[0 0 0 0 0 0 7 8]" {
		t.Errorf("buf = %s, want [:6] cleared and the rest untouched", got)
	}

	short := []Word{9, 9}
	g, err = NewGlobal(4, 4, short...)
	if err != nil {
		t.Fatal(err)
	}
	if raw := g.Raw(); len(raw) != 4 || raw[0] != 0 || short[0] != 9 {
		t.Fatalf("short buf: memory %v, buf %v: want a fresh zeroed array and buf untouched", raw, short)
	}
}
