package server

import (
	"fmt"
	"sync"
	"testing"
)

func TestLRUBasics(t *testing.T) {
	c := NewLRU(2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatal("miss on a")
	}
	// a is now most recent; inserting c evicts b.
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c should be present")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	hits, misses := c.Counters()
	if hits != 3 || misses != 2 {
		t.Fatalf("counters = (%d, %d), want (3, 2)", hits, misses)
	}
}

func TestLRUUpdateExisting(t *testing.T) {
	c := NewLRU(2)
	c.Put("a", 1)
	c.Put("a", 2)
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
	if v, _ := c.Get("a"); v.(int) != 2 {
		t.Fatal("update lost")
	}
}

func TestLRUDisabled(t *testing.T) {
	c := NewLRU(-1)
	c.Put("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache stored an entry")
	}
	if c.Len() != 0 {
		t.Fatal("disabled cache has entries")
	}
}

func TestLRUConcurrent(t *testing.T) {
	c := NewLRU(32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (w*31+i)%64)
				c.Put(k, i)
				c.Get(k)
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 32 {
		t.Fatalf("len = %d exceeds capacity", c.Len())
	}
}
